package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"llmms/internal/embedding"
	"llmms/internal/llm"
	"llmms/internal/tokenizer"
)

// fakeBackend serves scripted answers with engine-compatible chunking
// semantics: the full answer is tokenized, MaxTokens caps each call, and
// the continuation state is the emitted token prefix.
type fakeBackend struct {
	mu      sync.Mutex
	answers map[string]string
	tok     *tokenizer.Tokenizer
	calls   map[string]int
	fail    map[string]error
}

func newFakeBackend(answers map[string]string) *fakeBackend {
	return &fakeBackend{
		answers: answers,
		tok:     tokenizer.Default(),
		calls:   make(map[string]int),
	}
}

func (f *fakeBackend) GenerateChunk(ctx context.Context, req llm.ChunkRequest) (llm.Chunk, error) {
	f.mu.Lock()
	f.calls[req.Model]++
	err := f.fail[req.Model]
	full, ok := f.answers[req.Model]
	f.mu.Unlock()
	if err != nil {
		return llm.Chunk{}, err
	}
	if !ok {
		full = "I have no comment on that."
	}
	if ctx.Err() != nil {
		return llm.Chunk{Done: true, DoneReason: llm.DoneCancel}, nil
	}
	tokens := f.tok.Encode(full)
	cursor := len(req.Cont)
	if cursor > len(tokens) {
		cursor = len(tokens)
	}
	end := len(tokens)
	reason := llm.DoneStop
	if req.MaxTokens > 0 && cursor+req.MaxTokens < end {
		end = cursor + req.MaxTokens
		reason = llm.DoneLength
	}
	text := f.tok.Decode(tokens[cursor:end])
	state := make([]int, end)
	for i, t := range tokens[:end] {
		state[i] = int(t)
	}
	return llm.Chunk{
		Text: text, Done: true, DoneReason: reason,
		Context: state, EvalCount: end - cursor, TotalTokens: end,
	}, nil
}

func (f *fakeBackend) callCount(model string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[model]
}

const testPrompt = "What color is the sky on a clear day?"

// errBoom is the scripted backend failure used across the fault tests.
var errBoom = errors.New("daemon exploded")

// threeModels builds a backend where "good" answers the prompt directly,
// "okay" is related, and "bad" rambles off-topic — a clean separation the
// scoring layer must pick up.
func threeModels() *fakeBackend {
	return newFakeBackend(map[string]string{
		"good": "The sky is blue on a clear day because air molecules scatter blue sunlight.",
		"okay": "On a clear day the sky appears blue to human observers.",
		"bad":  "Bananas ripen faster in paper bags due to ethylene gas concentration effects entirely unrelated matters.",
	})
}

func mustNew(t *testing.T, b Backend, cfg Config) *Orchestrator {
	t.Helper()
	o, err := New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestNewValidation(t *testing.T) {
	b := newFakeBackend(nil)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no models", Config{}},
		{"empty model name", Config{Models: []string{""}}},
		{"duplicate model", Config{Models: []string{"a", "a"}}},
		{"negative margin", func() Config {
			c := DefaultConfig("a")
			c.PruneMargin = -1
			return c
		}()},
		{"negative alpha", func() Config {
			c := DefaultConfig("a")
			c.Alpha = -0.1
			return c
		}()},
	}
	for _, tc := range cases {
		if _, err := New(b, tc.cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := New(nil, DefaultConfig("a")); err == nil {
		t.Error("nil backend: expected error")
	}
}

func TestConfigDefaults(t *testing.T) {
	o := mustNew(t, newFakeBackend(nil), Config{Models: []string{"a"}})
	cfg := o.cfg
	if cfg.MaxTokens != 2048 || cfg.Alpha != 0.7 || cfg.Beta != 0.3 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if o.enc == nil || cfg.Rounds != 4 || cfg.MABChunk != 16 || cfg.Gamma0 != 0.3 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestParseStrategy(t *testing.T) {
	for _, s := range []string{"oua", "mab", "single"} {
		got, err := ParseStrategy(s)
		if err != nil || string(got) != s {
			t.Fatalf("ParseStrategy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseStrategy("ensemble"); err == nil {
		t.Fatal("expected error for unknown strategy")
	}
}

func TestSingleBaseline(t *testing.T) {
	b := threeModels()
	o := mustNew(t, b, DefaultConfig("good", "okay", "bad"))
	res, err := o.Run(context.Background(), StrategySingle, testPrompt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "good" || res.Strategy != StrategySingle {
		t.Fatalf("result = %+v", res)
	}
	if !strings.Contains(res.Answer, "blue") {
		t.Fatalf("answer = %q", res.Answer)
	}
	if res.TokensUsed <= 0 {
		t.Fatal("no tokens accounted")
	}
	if len(res.Outcomes) != 1 || !res.Outcomes[0].Done {
		t.Fatalf("outcomes = %+v", res.Outcomes)
	}
	if b.callCount("okay") != 0 || b.callCount("bad") != 0 {
		t.Fatal("single baseline touched other models")
	}
}

func TestRunDispatch(t *testing.T) {
	o := mustNew(t, threeModels(), DefaultConfig("good", "okay", "bad"))
	for _, s := range []Strategy{StrategyOUA, StrategyMAB, StrategySingle} {
		res, err := o.Run(context.Background(), s, testPrompt)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if res.Strategy != s || res.Answer == "" {
			t.Fatalf("%s: result = %+v", s, res)
		}
	}
	if _, err := o.Run(context.Background(), "nope", testPrompt); err == nil {
		t.Fatal("expected error for unknown strategy")
	}
}

func TestOUASelectsRelevantModel(t *testing.T) {
	o := mustNew(t, threeModels(), DefaultConfig("good", "okay", "bad"))
	res, err := o.Run(context.Background(), StrategyOUA, testPrompt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model == "bad" {
		t.Fatalf("OUA selected the off-topic model: %+v", res)
	}
	if !strings.Contains(res.Answer, "blue") && !strings.Contains(res.Answer, "sky") {
		t.Fatalf("answer = %q", res.Answer)
	}
}

func TestOUABudgetInvariant(t *testing.T) {
	for _, budget := range []int{12, 48, 256, 2048} {
		cfg := DefaultConfig("good", "okay", "bad")
		cfg.MaxTokens = budget
		o := mustNew(t, threeModels(), cfg)
		res, err := o.Run(context.Background(), StrategyOUA, testPrompt)
		if err != nil {
			t.Fatal(err)
		}
		if res.TokensUsed > budget {
			t.Fatalf("budget %d exceeded: used %d", budget, res.TokensUsed)
		}
		sum := 0
		for _, out := range res.Outcomes {
			sum += out.Tokens
		}
		if sum != res.TokensUsed {
			t.Fatalf("per-model tokens %d != total %d", sum, res.TokensUsed)
		}
	}
}

func TestOUAPrunesTrailingModel(t *testing.T) {
	cfg := DefaultConfig("good", "okay", "bad")
	cfg.MaxTokens = 240
	cfg.Rounds = 6
	o := mustNew(t, threeModels(), cfg)
	res, err := o.Run(context.Background(), StrategyOUA, testPrompt)
	if err != nil {
		t.Fatal(err)
	}
	bad, ok := res.Outcome("bad")
	if !ok {
		t.Fatal("bad model missing from outcomes")
	}
	if !bad.Pruned {
		t.Fatalf("expected the off-topic model to be pruned: %+v", res.Outcomes)
	}
}

func TestOUAPrunedModelStopsGenerating(t *testing.T) {
	b := threeModels()
	cfg := DefaultConfig("good", "okay", "bad")
	cfg.MaxTokens = 600
	cfg.Rounds = 10
	var pruneRound int
	var badCallsAtPrune int
	cfg.OnEvent = func(ev Event) {
		if ev.Type == EventPrune && ev.Model == "bad" {
			pruneRound = ev.Round
			badCallsAtPrune = b.callCount("bad")
		}
	}
	o := mustNew(t, b, cfg)
	if _, err := o.Run(context.Background(), StrategyOUA, testPrompt); err != nil {
		t.Fatal(err)
	}
	if pruneRound == 0 {
		t.Skip("no prune occurred at this configuration")
	}
	if after := b.callCount("bad"); after != badCallsAtPrune {
		t.Fatalf("pruned model generated again: %d calls at prune, %d after", badCallsAtPrune, after)
	}
}

func TestOUAEarlyExitOnClearLeader(t *testing.T) {
	// Two models: one answers immediately and well; one rambles at length.
	b := newFakeBackend(map[string]string{
		"fast": "The sky is blue.",
		"slow": strings.Repeat("Elephants and typewriters share no obvious taxonomy. ", 30),
	})
	cfg := DefaultConfig("fast", "slow")
	cfg.MaxTokens = 2048
	cfg.Rounds = 8
	o := mustNew(t, b, cfg)
	res, err := o.Run(context.Background(), StrategyOUA, testPrompt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "fast" {
		t.Fatalf("winner = %s", res.Model)
	}
	if !res.EarlyExit {
		t.Fatalf("expected early exit, used %d tokens over %d rounds", res.TokensUsed, res.Rounds)
	}
	if res.TokensUsed >= 2048/2 {
		t.Fatalf("early exit should save budget; used %d", res.TokensUsed)
	}
}

func TestOUAStrictPaperMarginsDisablePruning(t *testing.T) {
	// With the pseudocode's literal 0.5 margins, cosine-scale score gaps
	// never reach the thresholds, so nothing is pruned and nothing exits
	// early — the run degenerates to an even split, as written.
	cfg := DefaultConfig("good", "okay", "bad")
	cfg.PruneMargin, cfg.LeadMargin = 0.5, 0.5
	o := mustNew(t, threeModels(), cfg)
	res, err := o.Run(context.Background(), StrategyOUA, testPrompt)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range res.Outcomes {
		if out.Pruned {
			t.Fatalf("strict margins pruned %s (gap can't exceed 0.5 here)", out.Model)
		}
	}
	if res.EarlyExit {
		t.Fatal("strict margins should not early-exit on these answers")
	}
}

func TestOUASingleModelDegenerate(t *testing.T) {
	o := mustNew(t, threeModels(), DefaultConfig("good"))
	res, err := o.Run(context.Background(), StrategyOUA, testPrompt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "good" || res.Answer == "" {
		t.Fatalf("result = %+v", res)
	}
}

// fastRetry is the test retry policy: two attempts, no backoff sleeps,
// no per-attempt deadline — failure paths resolve instantly.
var fastRetry = retryPolicy{attempts: 2}

// mustNewFast is mustNew under fastRetry.
func mustNewFast(t *testing.T, b Backend, cfg Config) *Orchestrator {
	t.Helper()
	o := mustNew(t, b, cfg)
	o.retry = fastRetry
	return o
}

func TestOUABackendErrorDegradesGracefully(t *testing.T) {
	// A permanently failing model no longer kills the query: it is
	// pruned with an EventModelFailed and the survivor answers.
	b := threeModels()
	b.fail = map[string]error{"okay": errBoom}
	cfg := DefaultConfig("good", "okay")
	var failed []Event
	cfg.OnEvent = func(ev Event) {
		if ev.Type == EventModelFailed {
			failed = append(failed, ev)
		}
	}
	o := mustNewFast(t, b, cfg)
	res, err := o.Run(context.Background(), StrategyOUA, testPrompt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "good" {
		t.Fatalf("winner = %s, want the surviving model", res.Model)
	}
	if len(failed) != 1 || failed[0].Model != "okay" || failed[0].Attempts != 2 {
		t.Fatalf("model_failed events = %+v", failed)
	}
	okay, ok := res.Outcome("okay")
	if !ok || !okay.Failed || !okay.Pruned || okay.Error == "" {
		t.Fatalf("failed outcome = %+v", okay)
	}
}

func TestOUAContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := mustNew(t, threeModels(), DefaultConfig("good", "okay"))
	if _, err := o.Run(ctx, StrategyOUA, testPrompt); err == nil {
		t.Fatal("expected cancellation error")
	}
}

func TestMABSelectsRelevantModel(t *testing.T) {
	o := mustNew(t, threeModels(), DefaultConfig("good", "okay", "bad"))
	res, err := o.Run(context.Background(), StrategyMAB, testPrompt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model == "bad" {
		t.Fatalf("MAB selected the off-topic model: %+v", res)
	}
}

func TestMABPullsEveryArmOnce(t *testing.T) {
	b := threeModels()
	cfg := DefaultConfig("good", "okay", "bad")
	cfg.MaxTokens = 2048
	o := mustNew(t, b, cfg)
	res, err := o.Run(context.Background(), StrategyMAB, testPrompt)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range res.Outcomes {
		if out.Pulls == 0 {
			t.Fatalf("arm %s was never pulled (UCB1 must initialize all arms): %+v", out.Model, res.Outcomes)
		}
	}
}

func TestMABBudgetInvariant(t *testing.T) {
	for _, budget := range []int{10, 33, 100, 1000} {
		cfg := DefaultConfig("good", "okay", "bad")
		cfg.MaxTokens = budget
		o := mustNew(t, threeModels(), cfg)
		res, err := o.Run(context.Background(), StrategyMAB, testPrompt)
		if err != nil {
			t.Fatal(err)
		}
		if res.TokensUsed > budget {
			t.Fatalf("budget %d exceeded: used %d", budget, res.TokensUsed)
		}
	}
}

func TestMABConcentratesTokensOnWinner(t *testing.T) {
	cfg := DefaultConfig("good", "bad")
	cfg.MaxTokens = 512
	cfg.MABChunk = 8
	b := newFakeBackend(map[string]string{
		"good": "The sky is blue on a clear day. " + strings.Repeat("Blue skies result from Rayleigh scattering of sunlight in the atmosphere. ", 8),
		"bad":  strings.Repeat("Cabbages outnumber accordions in most municipal inventories. ", 10),
	})
	o := mustNew(t, b, cfg)
	res, err := o.Run(context.Background(), StrategyMAB, testPrompt)
	if err != nil {
		t.Fatal(err)
	}
	good, _ := res.Outcome("good")
	bad, _ := res.Outcome("bad")
	if good.Pulls <= bad.Pulls {
		t.Fatalf("bandit failed to concentrate pulls: good=%d bad=%d", good.Pulls, bad.Pulls)
	}
}

func TestMABStopsWhenAllArmsDone(t *testing.T) {
	b := newFakeBackend(map[string]string{
		"a": "Blue.",
		"b": "The sky is blue.",
	})
	cfg := DefaultConfig("a", "b")
	cfg.MaxTokens = 100000
	o := mustNew(t, b, cfg)
	res, err := o.Run(context.Background(), StrategyMAB, testPrompt)
	if err != nil {
		t.Fatal(err)
	}
	if res.TokensUsed > 64 {
		t.Fatalf("short finished answers should stop the loop; used %d tokens", res.TokensUsed)
	}
	for _, out := range res.Outcomes {
		if !out.Done {
			t.Fatalf("arm %s not done: %+v", out.Model, out)
		}
	}
}

func TestMABBackendErrorDegradesGracefully(t *testing.T) {
	b := threeModels()
	b.fail = map[string]error{"bad": errBoom}
	cfg := DefaultConfig("good", "okay", "bad")
	o := mustNewFast(t, b, cfg)
	res, err := o.Run(context.Background(), StrategyMAB, testPrompt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model == "bad" {
		t.Fatalf("failed arm won: %+v", res)
	}
	badOut, ok := res.Outcome("bad")
	if !ok || !badOut.Failed {
		t.Fatalf("failed arm outcome = %+v", badOut)
	}
}

func TestUCB1Index(t *testing.T) {
	c := &candidate{pulls: 0}
	if got := ucb1(c, 0.3, 5); !isInf(got) {
		t.Fatalf("unpulled arm index = %v, want +Inf", got)
	}
	c = &candidate{pulls: 4, rewardSum: 2.0}
	withExploration := ucb1(c, 0.3, 10)
	noExploration := ucb1(c, 0, 10)
	if noExploration != 0.5 {
		t.Fatalf("mean = %v, want 0.5", noExploration)
	}
	if withExploration <= noExploration {
		t.Fatalf("exploration bonus missing: %v <= %v", withExploration, noExploration)
	}
	// More pulls shrink the bonus.
	cMore := &candidate{pulls: 16, rewardSum: 8.0}
	if ucb1(cMore, 0.3, 100) >= ucb1(c, 0.3, 100) {
		t.Fatal("bonus should shrink with pulls at equal mean")
	}
}

func isInf(f float64) bool { return f > 1e300 }

func TestEventStream(t *testing.T) {
	var events []Event
	cfg := DefaultConfig("good", "okay", "bad")
	cfg.OnEvent = func(ev Event) { events = append(events, ev) }
	o := mustNew(t, threeModels(), cfg)
	if _, err := o.Run(context.Background(), StrategyOUA, testPrompt); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}
	if events[0].Type != EventStart {
		t.Fatalf("first event = %s", events[0].Type)
	}
	last := events[len(events)-1]
	if last.Type != EventWinner || last.Text == "" {
		t.Fatalf("last event = %+v", last)
	}
	seen := map[EventType]bool{}
	for _, ev := range events {
		seen[ev.Type] = true
		if ev.Time.IsZero() {
			t.Fatal("event missing timestamp")
		}
	}
	for _, want := range []EventType{EventRound, EventChunk, EventScore} {
		if !seen[want] {
			t.Fatalf("no %s events in stream", want)
		}
	}
}

func TestScoreAllAgreementTerm(t *testing.T) {
	enc := embedding.Default()
	qv := enc.Encode(testPrompt)
	agreeA := &candidate{model: "a", response: "The sky is blue."}
	agreeB := &candidate{model: "b", response: "The sky appears blue."}
	loner := &candidate{model: "c", response: "Submarines navigate with sonar."}
	cands := []*candidate{agreeA, agreeB, loner}
	scoreAll(enc, qv, 0.7, 0.3, cands)
	if agreeA.interSim <= loner.interSim {
		t.Fatalf("consensus term broken: agreeing %f <= loner %f", agreeA.interSim, loner.interSim)
	}
	if agreeA.score <= loner.score {
		t.Fatalf("combined score broken: %f <= %f", agreeA.score, loner.score)
	}
	// Empty response scores zero.
	empty := &candidate{model: "d"}
	scoreAll(enc, qv, 0.7, 0.3, []*candidate{empty, agreeA})
	if empty.score != 0 {
		t.Fatalf("empty response scored %f", empty.score)
	}
}

func TestRedistributeConservesBudget(t *testing.T) {
	a := &candidate{model: "a", remaining: 100}
	b := &candidate{model: "b", remaining: 50}
	c := &candidate{model: "c", remaining: 77, pruned: false}
	pruned := &candidate{model: "p", remaining: 31, pruned: true}
	before := a.remaining + b.remaining + c.remaining + pruned.remaining
	redistribute(pruned, []*candidate{a, b, c, pruned})
	after := a.remaining + b.remaining + c.remaining + pruned.remaining
	if before != after {
		t.Fatalf("redistribution lost tokens: %d -> %d", before, after)
	}
	if pruned.remaining != 0 {
		t.Fatal("pruned model kept budget")
	}
}

func TestRedistributeSkipsDoneModels(t *testing.T) {
	a := &candidate{model: "a", remaining: 10, done: true}
	b := &candidate{model: "b", remaining: 10}
	pruned := &candidate{model: "p", remaining: 9, pruned: true}
	redistribute(pruned, []*candidate{a, b, pruned})
	if a.remaining != 10 {
		t.Fatalf("finished model received budget: %d", a.remaining)
	}
	if b.remaining != 19 {
		t.Fatalf("survivor has %d, want 19", b.remaining)
	}
}

func TestTopTwoBottomTwo(t *testing.T) {
	a := &candidate{model: "a", score: 0.9}
	b := &candidate{model: "b", score: 0.5}
	c := &candidate{model: "c", score: 0.1}
	best, second := topTwo([]*candidate{c, a, b})
	if best != a || second != b {
		t.Fatalf("topTwo = %s, %s", best.model, second.model)
	}
	worst, secondWorst := bottomTwo([]*candidate{b, c, a})
	if worst != c || secondWorst != b {
		t.Fatalf("bottomTwo = %s, %s", worst.model, secondWorst.model)
	}
}

// TestBudgetInvariantProperty drives OUA and MAB with random budgets,
// chunk sizes, and round counts; total usage must never exceed λ_max and
// per-model usage must sum to the total.
func TestBudgetInvariantProperty(t *testing.T) {
	f := func(budgetSeed, roundSeed, chunkSeed uint8) bool {
		budget := 8 + int(budgetSeed)%512
		cfg := DefaultConfig("good", "okay", "bad")
		cfg.MaxTokens = budget
		cfg.Rounds = 1 + int(roundSeed)%8
		cfg.MABChunk = 1 + int(chunkSeed)%32
		o, err := New(threeModels(), cfg)
		if err != nil {
			return false
		}
		for _, strat := range []Strategy{StrategyOUA, StrategyMAB} {
			res, err := o.Run(context.Background(), strat, testPrompt)
			if err != nil {
				return false
			}
			if res.TokensUsed > budget {
				return false
			}
			sum := 0
			for _, out := range res.Outcomes {
				sum += out.Tokens
			}
			if sum != res.TokensUsed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestOrchestratorWithRealEngine exercises core against the actual
// simulated-inference engine on benchmark questions — the integration the
// evaluation harness depends on.
func TestOrchestratorWithRealEngine(t *testing.T) {
	engine := llm.NewEngine(llm.Options{})
	cfg := DefaultConfig(llm.ModelLlama3, llm.ModelMistral, llm.ModelQwen2)
	cfg.MaxTokens = 512
	o := mustNew(t, engine, cfg)
	prompt := "Question: What happens if you swallow chewing gum?\nAnswer:"
	for _, strat := range []Strategy{StrategyOUA, StrategyMAB, StrategySingle} {
		res, err := o.Run(context.Background(), strat, prompt)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if res.Answer == "" || res.TokensUsed == 0 || res.TokensUsed > cfg.MaxTokens {
			t.Fatalf("%s: result = %+v", strat, res)
		}
	}
}

func BenchmarkOUA(b *testing.B) {
	o, err := New(threeModels(), DefaultConfig("good", "okay", "bad"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := o.Run(context.Background(), StrategyOUA, testPrompt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMAB(b *testing.B) {
	cfg := DefaultConfig("good", "okay", "bad")
	cfg.MaxTokens = 256
	o, err := New(threeModels(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := o.Run(context.Background(), StrategyMAB, testPrompt); err != nil {
			b.Fatal(err)
		}
	}
}
