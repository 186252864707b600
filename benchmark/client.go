package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"llmms/internal/server"
)

// The load generator: a closed loop of `clients` clients, each on its own
// keep-alive connection. A client sends its next operation only after the
// previous one has completed.

// resultFrame is the part of the SSE "result" frame the harness reads.
type resultFrame struct {
	SessionID string `json:"session_id"`
	QueryID   string `json:"query_id"`
	Result    struct {
		Answer     string `json:"answer"`
		Model      string `json:"model"`
		TokensUsed int    `json:"tokens_used"`
		Rounds     int    `json:"rounds"`
		EarlyExit  bool   `json:"early_exit"`
	} `json:"result"`
}

// outcome is everything observed about one operation from outside.
type outcome struct {
	Op    op
	Query string // harness query id

	// End is when the operation completed; the measured phase's blocks
	// are windows of it.
	End time.Time

	Status     int
	Err        string        // transport failure, or the SSE error frame
	Latency    time.Duration // send → terminal frame (queries) or response (writes)
	FirstChunk time.Duration // send → first "chunk" frame; 0 when none arrived
	Cache      string        // X-Cache
	Route      string        // X-Route
	SentSess   string        // session id sent, "" for a fresh session
	HeaderSess string        // X-Session-Id

	Frames    int // SSE frames received
	Bytes     int // SSE bytes received
	Terminals int // "result" + "error" frames
	Events    map[string]int
	StallNs   int64 // sum of round_stall elapsed_ns
	Result    resultFrame

	// Violations are the output checker's findings (check.go).
	Violations []string
}

// orchestrated reports whether the query ran the models (as opposed to a
// cache replay or a coalesced follower).
func (o *outcome) orchestrated() bool {
	return o.Cache == "" || o.Cache == "MISS"
}

// completed reports whether the query got its result.
func (o *outcome) completed() bool {
	return o.Op.Kind == kindQuery && o.Err == "" && o.Status == http.StatusOK && o.Result.QueryID != ""
}

// docStore maps plan document indices to the ids the server gave them.
// One client uploads a document, another may delete it much later.
type docStore struct {
	mu  sync.Mutex
	ids []string
}

func (d *docStore) get(i int) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ids[i]
}

func (d *docStore) set(i int, id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ids[i] = id
}

// client is one closed-loop client on its own keep-alive connection.
type client struct {
	base string
	hc   *http.Client
	docs []doc
	ids  *docStore
}

func newClient(base string, p *plan, ids *docStore) *client {
	return &client{
		base: base, docs: p.Docs, ids: ids,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one operation under the harness query id and observes its
// response. session is the id an earlier turn of the same session got.
func (c *client) do(ctx context.Context, id string, o op, session string) outcome {
	out := outcome{Op: o, Query: id}
	switch o.Kind {
	case kindQuery:
		c.query(ctx, &out, session)
	case kindUpload:
		c.upload(ctx, &out)
	case kindDelete:
		c.delete(ctx, &out)
	default:
		out.Err = "unknown operation kind " + o.Kind
	}
	out.End = time.Now()
	return out
}

// unit sends a unit's operations in order; the session id turn 1 gets
// back is what the later turns send.
func (c *client) unit(ctx context.Context, prefix string, ops []op, before func(op)) []outcome {
	outs := make([]outcome, 0, len(ops))
	session := ""
	for i, o := range ops {
		if before != nil {
			before(o)
		}
		if ctx.Err() != nil {
			outs = append(outs, outcome{Op: o, Err: "run deadline exceeded before this operation was sent", End: time.Now()})
			continue
		}
		if o.Turn <= 1 {
			session = ""
		}
		out := c.do(ctx, fmt.Sprintf("%s-%d", prefix, i), o, session)
		if o.Turn == 1 {
			session = out.Result.SessionID
		}
		outs = append(outs, out)
	}
	return outs
}

func (c *client) query(ctx context.Context, out *outcome, session string) {
	o := out.Op
	req := server.QueryRequest{
		Query: o.Query, Strategy: o.Strategy, MaxTokens: o.MaxTokens, UseRAG: o.UseRAG,
		SessionID: session,
	}
	out.SentSess = session
	body, err := json.Marshal(req)
	if err != nil {
		out.Err = err.Error()
		return
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/api/query", bytes.NewReader(body))
	if err != nil {
		out.Err = err.Error()
		return
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(queryHeader, out.Query)
	start := time.Now()
	resp, err := c.hc.Do(hr)
	if err != nil {
		out.Err = err.Error()
		return
	}
	defer resp.Body.Close()
	out.Status = resp.StatusCode
	out.Cache = resp.Header.Get("X-Cache")
	out.Route = resp.Header.Get("X-Route")
	out.HeaderSess = resp.Header.Get("X-Session-Id")
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		out.Err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		out.Latency = time.Since(start)
		return
	}
	if err := readSSE(resp.Body, start, out); err != nil {
		out.Err = err.Error()
	}
	if out.Latency == 0 {
		out.Latency = time.Since(start)
	}
}

// readSSE consumes one /api/query stream, timing its first chunk frame
// and its terminal frame from start.
func readSSE(body io.Reader, start time.Time, out *outcome) error {
	out.Events = make(map[string]int)
	br := bufio.NewReaderSize(body, 32<<10)
	event := ""
	for {
		line, err := br.ReadSlice('\n')
		out.Bytes += len(line)
		if err == bufio.ErrBufferFull {
			// A line longer than the reader's buffer (a very long result
			// frame): collect the rest of it.
			rest, rerr := readLongLine(br, line)
			out.Bytes += len(rest) - len(line)
			line, err = rest, rerr
		}
		if len(line) > 0 {
			switch {
			case bytes.HasPrefix(line, []byte("event: ")):
				event = string(bytes.TrimSpace(line[len("event: "):]))
			case bytes.HasPrefix(line, []byte("data: ")):
				out.Frames++
				out.Events[event]++
				data := line[len("data: "):]
				switch event {
				case "chunk":
					if out.FirstChunk == 0 {
						out.FirstChunk = time.Since(start)
					}
				case "round_stall":
					var ev struct {
						Elapsed int64 `json:"elapsed_ns"`
					}
					if json.Unmarshal(data, &ev) == nil {
						out.StallNs += ev.Elapsed
					}
				case "result":
					out.Terminals++
					out.Latency = time.Since(start)
					if err := json.Unmarshal(data, &out.Result); err != nil {
						return fmt.Errorf("bad result frame: %w", err)
					}
				case "error":
					out.Terminals++
					out.Latency = time.Since(start)
					out.Err = "error frame: " + strings.TrimSpace(string(data))
				}
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("read stream: %w", err)
		}
	}
}

// readLongLine finishes a line that overflowed the reader's buffer.
func readLongLine(br *bufio.Reader, head []byte) ([]byte, error) {
	full := append([]byte(nil), head...)
	for {
		more, err := br.ReadSlice('\n')
		full = append(full, more...)
		if err != bufio.ErrBufferFull {
			return full, err
		}
	}
}

func (c *client) upload(ctx context.Context, out *outcome) {
	d := c.docs[out.Op.Doc]
	body, err := json.Marshal(map[string]string{"filename": d.Name, "content": d.Text})
	if err != nil {
		out.Err = err.Error()
		return
	}
	var reply struct {
		DocID string `json:"doc_id"`
	}
	c.write(ctx, out, http.MethodPost, "/api/upload", body, http.StatusCreated, &reply)
	if out.Err == "" {
		if reply.DocID == "" {
			out.Err = "upload returned no doc_id"
		}
		c.ids.set(out.Op.Doc, reply.DocID)
	}
}

func (c *client) delete(ctx context.Context, out *outcome) {
	id := c.ids.get(out.Op.Doc)
	if id == "" {
		out.Err = fmt.Sprintf("document %d was never uploaded", out.Op.Doc)
		return
	}
	c.write(ctx, out, http.MethodDelete, "/api/documents/"+id, nil, http.StatusOK, nil)
}

func (c *client) write(ctx context.Context, out *outcome, method, path string, body []byte, want int, reply any) {
	hr, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		out.Err = err.Error()
		return
	}
	hr.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.hc.Do(hr)
	if err != nil {
		out.Err = err.Error()
		return
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	out.Latency = time.Since(start)
	out.Status = resp.StatusCode
	switch {
	case err != nil:
		out.Err = err.Error()
	case resp.StatusCode != want:
		out.Err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	case reply != nil:
		if err := json.Unmarshal(data, reply); err != nil {
			out.Err = err.Error()
		}
	}
}

// The measured phase is cut into consecutive blocks of equal work, run one
// after the other with no request in flight in between, and a timing
// metric is the median of its per-block values, so interference from
// outside the sandbox that lasts a second or two moves a block and not
// the result. A block holds at least blockQueries queries, so that its
// p95 has ten samples beyond it; a phase too short for two such blocks
// is one block.
const (
	maxBlocks    = 12
	blockQueries = 200
)

func blockCount(p *plan) int {
	queries := 0
	for _, o := range p.ops() {
		if o.Kind == kindQuery {
			queries++
		}
	}
	return min(max(queries/blockQueries, 1), maxBlocks)
}

// block is one block of the measured phase: which units it ran, when, and
// the SUT's CPU seconds on either side.
type block struct {
	First, End int // units [First, End)
	From, To   time.Time
	CPU0, CPU1 float64
}

// runUnits runs the measured phase block by block: within a block the
// clients take units from one queue, each a closed loop, so both stay busy
// until the block's units are gone. It returns the outcomes of every unit,
// in unit order. sample reads the SUT's CPU seconds; it is called between
// blocks, when the SUT is idle, so it perturbs no request and a block's
// CPU and time windows are the same.
func runUnits(ctx context.Context, base string, p *plan, ids *docStore, sample func() (float64, error)) ([][]outcome, []block, error) {
	blocks := make([]block, blockCount(p))
	for b := range blocks {
		end := (b + 1) * len(p.Units) / len(blocks)
		for end < len(p.Units) && p.Units[end][0].Barrier == 2 {
			end++ // never between the halves of a pair
		}
		blocks[b].End = end
		if b+1 < len(blocks) {
			blocks[b+1].First = end
		}
	}
	cls := make([]*client, clients)
	for l := range cls {
		cls[l] = newClient(base, p, ids)
		defer cls[l].close()
	}
	// meet is a two-party barrier: an unbuffered rendezvous.
	meet := make(chan struct{})
	results := make([][]outcome, len(p.Units))
	cpu, err := sample()
	if err != nil {
		return nil, nil, err
	}
	for b := range blocks {
		bl := &blocks[b]
		var next atomic.Int64
		next.Store(int64(bl.First))
		var wg sync.WaitGroup
		bl.CPU0, bl.From = cpu, time.Now()
		for _, c := range cls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					u := int(next.Add(1)) - 1
					if u >= bl.End {
						return
					}
					results[u] = c.unit(ctx, fmt.Sprintf("m%d", u), p.Units[u], func(o op) {
						switch o.Barrier {
						case 1:
							select {
							case meet <- struct{}{}:
							case <-ctx.Done():
							}
						case 2:
							select {
							case <-meet:
							case <-ctx.Done():
							}
						}
					})
				}
			}()
		}
		wg.Wait()
		bl.To = time.Now()
		if cpu, err = sample(); err != nil {
			return nil, nil, err
		}
		bl.CPU1 = cpu
	}
	return results, blocks, nil
}
