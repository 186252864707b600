// Package core implements the LLM-MS orchestration layer — the paper's
// primary contribution (Chapter 4).
//
// An Orchestrator answers one prompt by coordinating several candidate
// models under a shared token budget λ_max. Models produce partial
// outputs through the getChunk primitive (a budget-capped, resumable
// generation call); every partial output is embedded and scored by
//
//	score = α·cos(emb(response), emb(prompt)) + β·interModelAgreement
//
// and the budget is reallocated toward the most promising models. Two
// allocation policies are provided:
//
//   - OUA (Overperformers–Underperformers Algorithm, Algorithm 1):
//     round-robin chunks, pruning of trailing models, early return of a
//     clearly leading finished answer.
//   - MAB (Multi-Armed Bandit, Algorithm 2): each model is a UCB1 arm;
//     chunks go to the arm with the highest upper confidence bound, with
//     an exploration coefficient that decays as the budget is consumed.
//
// A single-model baseline completes the evaluation triad. The package is
// backend-agnostic: any type with the GenerateChunk method (the in-process
// llm.Engine or the HTTP modeld.Client) can serve the models, through the
// generation sessions llm.Sessions hands out.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"llmms/internal/embedding"
	"llmms/internal/llm"
)

// Backend produces partial generations. llm.Engine, modeld.Client, and
// fleet.Pool all satisfy it; GenerateChunk is the paper's getChunk(LLM_i,
// p, λ): generate up to req.MaxTokens more tokens of the model's answer
// to req.Prompt, resuming from req.Cont (nil starts fresh), returning
// the aggregated text so far this call, the done reason, and the
// continuation state.
//
// Backend is an alias of llm.Backend — the repository's single backend
// contract. The orchestrator generates only through llm.Sessions, which
// uses a backend's own streams when it has them (llm.AsStreaming) and
// lifts a backend without any onto GenerateChunk; see
// internal/llm/backend.go.
type Backend = llm.Backend

// Strategy names an orchestration policy.
type Strategy string

// The orchestration strategies of the paper's evaluation (§8.1).
const (
	// StrategyOUA is the Overperformers–Underperformers Algorithm.
	StrategyOUA Strategy = "oua"
	// StrategyMAB is the UCB1 Multi-Armed Bandit algorithm.
	StrategyMAB Strategy = "mab"
	// StrategySingle is the static single-model baseline.
	StrategySingle Strategy = "single"
	// StrategyHybrid is the OUA-screening + MAB-refinement combination
	// the paper's analysis proposes (§8.4).
	StrategyHybrid Strategy = "hybrid"
)

// ParseStrategy resolves a user-supplied strategy name.
func ParseStrategy(s string) (Strategy, error) {
	switch Strategy(s) {
	case StrategyOUA, StrategyMAB, StrategySingle, StrategyHybrid:
		return Strategy(s), nil
	}
	return "", fmt.Errorf("core: unknown strategy %q (want oua, mab, hybrid, or single)", s)
}

// Config tunes an Orchestrator. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Models are the candidate model tags. At least one is required; OUA
	// and MAB are meaningful with two or more.
	Models []string
	// MaxTokens is λ_max, the shared generation budget per query.
	MaxTokens int
	// Alpha weights the query-similarity term of the score (paper: 0.7).
	Alpha float64
	// Beta weights the inter-model agreement term (paper: 0.3).
	Beta float64
	// PruneMargin prunes the worst model when the second-worst score
	// exceeds it by more than this (Algorithm 1 line 21 uses 0.5; see
	// DefaultConfig for why the default is smaller).
	PruneMargin float64
	// LeadMargin returns the best model early when it leads the
	// second-best score by more than this and has finished (line 17).
	LeadMargin float64
	// Rounds is how many OUA generation rounds the per-model allowance is
	// spread across. More rounds means finer pruning granularity.
	Rounds int
	// MABChunk is the token chunk granted per bandit pull. The thesis
	// text says "next token"; per-token round trips are pathological over
	// HTTP, and §6.3 describes chunked partial outputs, so pulls are
	// chunk-sized and configurable.
	MABChunk int
	// Gamma0 is the initial UCB1 exploration coefficient; it decays as
	// γ = Gamma0·(1 − usedTokens/MaxTokens) (Algorithm 2 line 11).
	Gamma0 float64
	// OnEvent, when non-nil, receives every orchestration event (chunk
	// arrivals, score updates, prunes, the final selection) synchronously,
	// timestamped: the one way events leave the orchestrator, from which
	// the application layer both streams and records them. It must not block.
	OnEvent func(Event)
	// BeforeWait, when non-nil, is invoked on the orchestrating goroutine
	// immediately before it blocks on generation: at the top of a fan-out
	// round, before a bandit's sequential pull, before Single's one drain.
	// Every event emitted so far precedes it and none follows until the
	// wait is over, so an application that buffers OnEvent output flushes
	// here — nothing it holds can be made stale by waiting, and nothing is
	// held while the orchestrator waits.
	BeforeWait func()
	// Priors, when non-empty, warm-start the bandit strategies' per-arm
	// reward estimates (predictive routing; DESIGN.md "Predictive
	// routing"). It is the only learned model quality that enters the
	// orchestrator: Priors[model] is the expected per-pull reward on the
	// score scale, counted as priorWeight pseudo-pulls, so a routed arm
	// starts from its cluster's historical mean instead of from zero
	// history. Models absent from the map start cold. OUA ignores
	// priors — its allocation is round-robin, not mean-driven — and the
	// final winner is always chosen on actual final scores, so priors
	// steer budget, never the selection.
	Priors map[string]float64
}

// priorWeight is the pseudo-pull mass behind each entry of Config.Priors.
const priorWeight = 2

// DefaultConfig returns the tuned configuration used throughout the
// repository. The paper's pseudocode margins of 0.5 are calibrated for
// raw score gaps that unit-norm embeddings rarely produce (cosine
// similarities of competing plausible answers cluster tightly), so the
// defaults use margins at which pruning and early exit actually trigger.
func DefaultConfig(models ...string) Config {
	return Config{
		Models:      models,
		MaxTokens:   2048,
		Alpha:       0.7,
		Beta:        0.3,
		PruneMargin: 0.08,
		LeadMargin:  0.08,
		Rounds:      4,
		MABChunk:    16,
		Gamma0:      0.3,
	}
}

func (c Config) withDefaults() Config {
	if c.MaxTokens <= 0 {
		c.MaxTokens = 2048
	}
	if c.Alpha == 0 && c.Beta == 0 {
		c.Alpha, c.Beta = 0.7, 0.3
	}
	if c.Rounds <= 0 {
		c.Rounds = 4
	}
	if c.MABChunk <= 0 {
		c.MABChunk = 16
	}
	if c.Gamma0 <= 0 {
		c.Gamma0 = 0.3
	}
	return c
}

// validate rejects configurations the algorithms cannot run with.
func (c Config) validate() error {
	if len(c.Models) == 0 {
		return errors.New("core: config has no models")
	}
	seen := make(map[string]bool, len(c.Models))
	for _, m := range c.Models {
		if m == "" {
			return errors.New("core: config has an empty model name")
		}
		if seen[m] {
			return fmt.Errorf("core: duplicate model %q", m)
		}
		seen[m] = true
	}
	if c.PruneMargin < 0 || c.LeadMargin < 0 {
		return errors.New("core: margins must be non-negative")
	}
	if c.Alpha < 0 || c.Beta < 0 {
		return errors.New("core: alpha and beta must be non-negative")
	}
	return nil
}

// ModelOutcome is the per-model record of one orchestrated query.
type ModelOutcome struct {
	// Model is the model tag.
	Model string `json:"model"`
	// Response is the model's accumulated (possibly partial) answer.
	Response string `json:"response"`
	// Tokens is how many tokens the model generated for this query.
	Tokens int `json:"tokens"`
	// Score is the model's final combined score α·qSim + β·interSim.
	Score float64 `json:"score"`
	// QuerySim is the final cosine similarity to the prompt embedding.
	QuerySim float64 `json:"query_sim"`
	// InterSim is the final average similarity to the other candidates.
	InterSim float64 `json:"inter_sim"`
	// Pulls is how many generation calls the model received.
	Pulls int `json:"pulls"`
	// Pruned reports whether the model was removed before completion —
	// by trailing the scoreboard or by failing its chunk calls.
	Pruned bool `json:"pruned"`
	// Done reports whether the model finished its answer naturally.
	Done bool `json:"done"`
	// DoneReason is the final generation status ("stop", "length", "").
	DoneReason string `json:"done_reason,omitempty"`
	// Failed reports that the model's backend kept erroring after the
	// retry budget and was dropped from the query (graceful degradation).
	Failed bool `json:"failed,omitempty"`
	// Error is the final backend error of a failed model.
	Error string `json:"error,omitempty"`
}

// Result is the outcome of one orchestrated query.
type Result struct {
	// Strategy is the policy that produced the result.
	Strategy Strategy `json:"strategy"`
	// Answer is the selected response text.
	Answer string `json:"answer"`
	// Model is the tag of the model whose answer was selected.
	Model string `json:"model"`
	// TokensUsed is the total generation cost across all models.
	TokensUsed int `json:"tokens_used"`
	// Rounds is how many allocation rounds (OUA) or pulls (MAB) ran.
	Rounds int `json:"rounds"`
	// EarlyExit reports whether OUA returned before exhausting budgets.
	EarlyExit bool `json:"early_exit"`
	// Outcomes holds the per-model records, sorted by descending score.
	Outcomes []ModelOutcome `json:"outcomes"`
	// Elapsed is the wall-clock orchestration time.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Outcome returns the record for one model, if present.
func (r Result) Outcome(model string) (ModelOutcome, bool) {
	for _, o := range r.Outcomes {
		if o.Model == model {
			return o, true
		}
	}
	return ModelOutcome{}, false
}

// Orchestrator coordinates candidate models for one query at a time. It
// is stateless across queries and safe for concurrent use as long as the
// backend is.
type Orchestrator struct {
	backend Backend
	cfg     Config
	enc     embedding.Encoder // embedding.Default(): embeds prompts and responses for scoring
	// retry is defaultRetry; in-package tests shorten it.
	retry retryPolicy
}

// New builds an orchestrator. The configuration is validated eagerly so
// misconfigurations surface at construction rather than at query time.
func New(backend Backend, cfg Config) (*Orchestrator, error) {
	if backend == nil {
		return nil, errors.New("core: nil backend")
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Orchestrator{backend: backend, cfg: cfg, enc: embedding.Default(), retry: defaultRetry}, nil
}

// Run answers prompt under strategy — the one entry point. It opens the
// query (run.go), lets the strategy take its decisions, and sweeps what is
// left open however the strategy returns. StrategySingle serves the first
// configured model with the whole budget.
func (o *Orchestrator) Run(ctx context.Context, strategy Strategy, prompt string) (Result, error) {
	var decide func(*run, context.Context) (Result, error)
	models := o.cfg.Models
	switch strategy {
	case StrategyOUA:
		decide = (*run).oua
	case StrategyMAB:
		decide = (*run).mab
	case StrategyHybrid:
		decide = (*run).hybrid
	case StrategySingle:
		models, decide = models[:1], (*run).single
	default:
		return Result{}, fmt.Errorf("core: unknown strategy %q", strategy)
	}
	r := o.open(strategy, prompt, models)
	defer r.close()
	return decide(r, ctx)
}

// single answers with one model and the full budget — the paper's static
// baseline (§8.1 execution mode 1): one session, drained once, and scored
// on its relevance alone.
func (r *run) single(ctx context.Context) (Result, error) {
	o, c := r.o, r.cands[0]
	if _, err := r.pull(ctx, c, o.cfg.MaxTokens); err != nil {
		return Result{}, err
	}
	if c.failed {
		// One model is the whole candidate pool: its failure is the
		// everyone-failed case, not a degradable one.
		return Result{}, fmt.Errorf("core: single %s: %w", c.model, c.failErr)
	}
	rv, acc := embedding.Borrow(o.enc, c.response)
	c.querySim = embedding.Cosine(r.sc.qv, rv)
	c.score = o.cfg.Alpha * c.querySim
	acc.Release()
	r.round = 1
	return r.finish(c, false, ""), nil
}

func (o *Orchestrator) emit(ev Event) {
	if o.cfg.OnEvent != nil {
		ev.Time = time.Now()
		o.cfg.OnEvent(ev)
	}
}

// beforeWait announces that the orchestrating goroutine is about to block
// on generation (Config.BeforeWait).
func (o *Orchestrator) beforeWait() {
	if o.cfg.BeforeWait != nil {
		o.cfg.BeforeWait()
	}
}

// candidate is the in-flight state of one model during orchestration.
type candidate struct {
	model    string
	response string
	cont     []int
	tokens   int
	pulls    int
	done     bool
	reason   llm.DoneReason
	pruned   bool
	failed   bool
	failErr  error

	// Scoring state, owned by the query's scorer (scorer.go): acc is the
	// candidate's incremental encoder state, encoded how many bytes of
	// response it has consumed, emb the materialized embedding (storage
	// reused across rounds), selfDot its cached ⟨emb,emb⟩ for the
	// sum-vector identity, and simsValid whether querySim/interSim are
	// current for the unchanged embedding.
	acc       *embedding.Accumulator
	encoded   int
	emb       embedding.Vector
	selfDot   float64
	simsValid bool
	querySim  float64
	interSim  float64
	score     float64

	// OUA budget
	remaining int

	// MAB state. priorSum/priorPulls carry the warm-start pseudo-pulls
	// from Config.Priors; both stay zero without priors, which keeps
	// every bandit formula identical to the prior-free code path.
	rewardSum  float64
	priorSum   float64
	priorPulls float64

	// sess is the candidate's generation session (stream.go), attached
	// when the query's run opens.
	sess *genSession
}

// newCandidate builds the in-flight state for one model, seeding the
// bandit warm-start pseudo-pulls when the config carries a prior for it.
func (o *Orchestrator) newCandidate(model string) *candidate {
	c := &candidate{model: model}
	if prior, ok := o.cfg.Priors[model]; ok {
		c.priorSum = prior * priorWeight
		c.priorPulls = priorWeight
	}
	return c
}

func (c *candidate) outcome() ModelOutcome {
	out := ModelOutcome{
		Model: c.model, Response: c.response, Tokens: c.tokens,
		Score: c.score, QuerySim: c.querySim, InterSim: c.interSim,
		Pulls: c.pulls, Pruned: c.pruned, Done: c.done, DoneReason: string(c.reason),
		Failed: c.failed,
	}
	if c.failErr != nil {
		out.Error = c.failErr.Error()
	}
	return out
}

// outcomes converts candidates to sorted ModelOutcome records (by
// descending score, name-tiebroken for determinism).
func outcomes(cands []*candidate) []ModelOutcome {
	out := make([]ModelOutcome, len(cands))
	for i, c := range cands {
		out[i] = c.outcome()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Model < out[j].Model
	})
	return out
}
