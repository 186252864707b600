package main

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

// frame renders one SSE frame as the server writes it.
func frame(event, data string) string { return "event: " + event + "\ndata: " + data + "\n\n" }

const goodResult = `{"session_id":"s000007","query_id":"q1","result":{"strategy":"oua","answer":"No, bats can see.","model":"qwen2:7b","tokens_used":96,"rounds":4,"early_exit":true}}`

// transcript is a canned /api/query stream: two rounds, a prune, a stall
// report per round, a winner and the result.
func transcript(result string) string {
	return frame("start", `{"type":"start"}`) +
		frame("round", `{"type":"round","round":1}`) +
		frame("chunk", `{"type":"chunk","round":1,"model":"qwen2:7b","text":"No, bats","tokens":10}`) +
		frame("chunk", `{"type":"chunk","round":1,"model":"llama3:8b","text":"Great","tokens":10}`) +
		frame("round_stall", `{"type":"round_stall","round":1,"elapsed_ns":250000}`) +
		frame("round", `{"type":"round","round":2}`) +
		frame("chunk", `{"type":"chunk","round":2,"model":"qwen2:7b","text":" can see.","tokens":8}`) +
		frame("round_stall", `{"type":"round_stall","round":2,"elapsed_ns":50000}`) +
		frame("prune", `{"type":"prune","model":"llama3:8b"}`) +
		frame("winner", `{"type":"winner","model":"qwen2:7b"}`) +
		result
}

// parse runs a transcript through the client's SSE reader as a 200
// response to the given operation.
func parse(t *testing.T, o op, sent, headerSess, cache, body string) outcome {
	t.Helper()
	out := outcome{Op: o, Status: http.StatusOK, SentSess: sent, HeaderSess: headerSess, Cache: cache}
	if err := readSSE(strings.NewReader(body), time.Now(), &out); err != nil {
		out.Err = err.Error()
	}
	return out
}

func TestReadSSECountsWhatItSees(t *testing.T) {
	body := transcript(frame("result", goodResult))
	out := parse(t, op{Kind: kindQuery, MaxTokens: 128}, "", "s000007", "", body)
	if out.Frames != 11 || out.Bytes != len(body) {
		t.Errorf("frames=%d bytes=%d, want 11 and %d", out.Frames, out.Bytes, len(body))
	}
	if out.Events["chunk"] != 3 || out.Events["round"] != 2 || out.Events["prune"] != 1 {
		t.Errorf("events %v", out.Events)
	}
	if out.StallNs != 300000 {
		t.Errorf("stall %d ns, want 300000", out.StallNs)
	}
	if out.Terminals != 1 || out.Result.Result.TokensUsed != 96 || out.Result.Result.Model != "qwen2:7b" ||
		!out.Result.Result.EarlyExit || out.Result.SessionID != "s000007" {
		t.Errorf("result %+v terminals %d", out.Result, out.Terminals)
	}
	if out.FirstChunk <= 0 || out.Latency < out.FirstChunk {
		t.Errorf("first chunk %v, latency %v", out.FirstChunk, out.Latency)
	}
	if !out.completed() || !out.orchestrated() {
		t.Error("a good stream should be completed and orchestrated")
	}
}

func TestCheckOutcome(t *testing.T) {
	fanout := workloadSpec{Name: "fanout_unpaced"}
	serving := workloadSpec{Name: "repeat_mix", Serving: true}
	query := op{Kind: kindQuery, MaxTokens: 128}
	result := func(r string) string { return transcript(frame("result", r)) }
	for _, tc := range []struct {
		name string
		spec workloadSpec
		out  outcome
		want string // substring of a violation; "" means none
	}{
		{"good", fanout, parse(t, query, "", "s000007", "", result(goodResult)), ""},
		{"session reused", fanout, parse(t, query, "s000007", "s000007", "", result(goodResult)), ""},
		{"cache hit with serving on", serving, parse(t, query, "", "s000007", "HIT", result(goodResult)), ""},
		{"no terminal frame", fanout, parse(t, query, "", "s000007", "", transcript("")), "0 terminal frames"},
		{"two terminal frames", fanout,
			parse(t, query, "", "s000007", "", result(goodResult)+frame("result", goodResult)), "2 terminal frames"},
		{"error frame", fanout,
			parse(t, query, "", "s000007", "", transcript(frame("error", `{"error":{"code":"all_models_failed","message":"x"}}`))), "error frame"},
		{"winner not enabled", fanout,
			parse(t, query, "", "s000007", "", result(strings.Replace(goodResult, `"model":"qwen2:7b"`, `"model":"ghost:1b"`, 1))), "not an enabled model"},
		{"over budget", fanout,
			parse(t, query, "", "s000007", "", result(strings.Replace(goodResult, `"tokens_used":96`, `"tokens_used":129`, 1))), "exceeds max_tokens 128"},
		{"over the default budget", fanout,
			parse(t, op{Kind: kindQuery}, "", "s000007", "", result(strings.Replace(goodResult, `"tokens_used":96`, `"tokens_used":2049`, 1))), "exceeds max_tokens 2048"},
		{"another session came back", fanout, parse(t, query, "s000001", "s000007", "", result(goodResult)), `"s000001" sent`},
		{"header and frame disagree", fanout, parse(t, query, "", "s000008", "", result(goodResult)), "X-Session-Id"},
		{"cache hit with the cache off", fanout, parse(t, query, "", "s000007", "HIT", result(goodResult)), "cache off"},
		{"empty answer", fanout,
			parse(t, query, "", "s000007", "", result(strings.Replace(goodResult, `"answer":"No, bats can see."`, `"answer":""`, 1))), "empty answer"},
		{"refused", fanout, outcome{Op: query, Status: http.StatusTooManyRequests, Err: "status 429: overloaded"}, "status 429"},
		{"failed upload", fanout, outcome{Op: op{Kind: kindUpload}, Status: 422, Err: "status 422: ingest"}, "status 422"},
		{"good upload", fanout, outcome{Op: op{Kind: kindUpload}, Status: http.StatusCreated}, ""},
	} {
		bad := checkOutcome(tc.spec, &tc.out)
		switch {
		case tc.want == "" && len(bad) > 0:
			t.Errorf("%s: unexpected violations %v", tc.name, bad)
		case tc.want != "" && !strings.Contains(strings.Join(bad, "; "), tc.want):
			t.Errorf("%s: violations %v, want one containing %q", tc.name, bad, tc.want)
		}
	}
}

func TestCheckWorkload(t *testing.T) {
	fanout := workloadSpec{Name: "fanout_unpaced"}
	serving := workloadSpec{Name: "repeat_mix", Serving: true}
	agent := workloadSpec{Name: "agent_sessions", Serving: true, Agent: true}
	for _, tc := range []struct {
		name       string
		spec       workloadSpec
		c          counts
		summarised int
		want       string
	}{
		{"fanout good", fanout, counts{Completed: 10, Orchestrated: 10, Rounds: 40}, 0, ""},
		{"fanout single round", fanout, counts{Completed: 10, Orchestrated: 10, Rounds: 10}, 0, "rounds_per_query"},
		{"fanout saw a hit", fanout, counts{Completed: 10, Orchestrated: 9, Rounds: 40, Exact: 1}, 0, "cache-less"},
		{"repeat good", serving, counts{Completed: 10, Orchestrated: 4, Exact: 4, Semantic: 1, Coalesced: 1}, 0, ""},
		{"repeat never coalesced", serving, counts{Completed: 10, Orchestrated: 4, Exact: 5, Semantic: 1}, 0, "coalesced=0"},
		{"agent good", agent, counts{Completed: 10, Orchestrated: 10, Routed: 3}, 2, ""},
		{"agent never routed", agent, counts{Completed: 10, Orchestrated: 10}, 2, "routed_share"},
		{"agent never summarised", agent, counts{Completed: 10, Orchestrated: 10, Routed: 3}, 0, "summary_share"},
		{"nothing completed", fanout, counts{}, 0, "no query completed"},
	} {
		bad := checkWorkload(tc.spec, tc.c, tc.summarised)
		switch {
		case tc.want == "" && len(bad) > 0:
			t.Errorf("%s: unexpected violations %v", tc.name, bad)
		case tc.want != "" && !strings.Contains(strings.Join(bad, "; "), tc.want):
			t.Errorf("%s: violations %v, want one containing %q", tc.name, bad, tc.want)
		}
	}
}

func TestTallyCountsFailuresAndShares(t *testing.T) {
	body := transcript(frame("result", goodResult))
	outs := []outcome{
		parse(t, op{Kind: kindQuery, MaxTokens: 128}, "", "s000007", "MISS", body),
		parse(t, op{Kind: kindQuery, MaxTokens: 128}, "", "s000007", "HIT", body),
		parse(t, op{Kind: kindQuery, MaxTokens: 128}, "", "s000007", "COALESCED", body),
		{Op: op{Kind: kindQuery}, Status: 429, Err: "status 429"},
		{Op: op{Kind: kindUpload}, Status: http.StatusCreated, Latency: 2 * time.Millisecond},
	}
	outs[0].Route = "topk:1"
	spec := workloadSpec{Name: "repeat_mix", Serving: true}
	for i := range outs {
		outs[i].Violations = checkOutcome(spec, &outs[i])
	}
	c := tally(outs)
	if c.Attempted != 5 || c.Failed != 1 || c.Queries != 4 || c.Completed != 3 || c.Orchestrated != 1 {
		t.Errorf("counts %+v", c)
	}
	if c.Exact != 1 || c.Coalesced != 1 || c.Routed != 1 || c.WidthSum != 1 || c.TokensSpent != 96 {
		t.Errorf("counts %+v", c)
	}
	if c.Uploads != 1 || len(c.UploadMs) != 1 || c.UploadMs[0] != 2 {
		t.Errorf("uploads %+v", c)
	}
}
