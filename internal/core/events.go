package core

import "time"

// EventType labels an orchestration event.
type EventType string

// Orchestration event types, in the order a client typically sees them.
const (
	// EventStart opens a query; Model is set for single-model runs.
	EventStart EventType = "start"
	// EventRound opens an OUA round or a MAB pull; Round counts from 1.
	EventRound EventType = "round"
	// EventChunk reports freshly generated text for one model.
	EventChunk EventType = "chunk"
	// EventScore reports a model's updated combined score.
	EventScore EventType = "score"
	// EventPrune reports that OUA removed a trailing model.
	EventPrune EventType = "prune"
	// EventModelFailed reports that a model's backend kept erroring past
	// the per-chunk retry budget and was dropped from the query; the
	// survivors keep competing (graceful degradation). Reason carries the
	// final error, Attempts the tries spent.
	EventModelFailed EventType = "model_failed"
	// EventScorePass reports one completed scoring pass (embed + score of
	// the active candidates); Elapsed is the pass's compute time. Feeds
	// the llmms_score_duration_seconds latency budget histogram.
	EventScorePass EventType = "score_pass"
	// EventStreamOpen reports that a model's persistent generation stream
	// was opened: lazily on the model's first drain, and again when a
	// later grant or the failure ladder reopens it.
	EventStreamOpen EventType = "stream_open"
	// EventStreamClose reports that a model's generation stream ended;
	// Reason says why (done, pruned, early_exit, failed, query_end,
	// error).
	EventStreamClose EventType = "stream_close"
	// EventStreamFallback reports that a model's stream failed to open or
	// broke mid-query and was reopened from the last good continuation
	// state. Reason carries the first error of the pull.
	EventStreamFallback EventType = "stream_fallback"
	// EventRoundStall reports how long a round's slowest streamed drain
	// waited on generation (Elapsed). A pipelined query stalls near zero
	// after round one because round r+1's tokens decode while round r is
	// being scored.
	EventRoundStall EventType = "round_stall"
	// EventWinner closes the query with the selected answer.
	EventWinner EventType = "winner"
)

// Event is one step of an orchestrated query, delivered synchronously to
// Config.OnEvent. The application layer serializes events as SSE frames,
// which is how the paper's UI shows parallel model progress, scores, and
// token allocations in real time (§7.3 "Model Routing Transparency").
type Event struct {
	// Type discriminates the payload fields below.
	Type EventType `json:"type"`
	// Strategy is the policy emitting the event.
	Strategy Strategy `json:"strategy"`
	// Time is when the event was emitted.
	Time time.Time `json:"time"`
	// Round is the OUA round or MAB pull number (from 1), on round,
	// chunk, score, and prune events.
	Round int `json:"round,omitempty"`
	// Model is the model the event concerns, when applicable.
	Model string `json:"model,omitempty"`
	// Text is the new chunk text (chunk) or the final answer (winner).
	Text string `json:"text,omitempty"`
	// Tokens is the chunk token count (chunk) or total usage (winner).
	Tokens int `json:"tokens,omitempty"`
	// Score is the model's combined score on score and prune events.
	Score float64 `json:"score,omitempty"`
	// QuerySim and InterSim break the score into its two terms.
	QuerySim float64 `json:"query_sim,omitempty"`
	InterSim float64 `json:"inter_sim,omitempty"`
	// Reason explains prune, model_failed, and winner events ("pruned:
	// trailing by 0.12", "early exit", the final backend error, …).
	Reason string `json:"reason,omitempty"`
	// Attempts is how many generation tries were spent: on chunk events,
	// the tries the chunk took (1 = no retries); on model_failed events,
	// the tries exhausted before the model was dropped.
	Attempts int `json:"attempts,omitempty"`
	// Prefetched is, on chunk events from a streamed drain, how many of
	// the chunk's tokens were already buffered client-side when the round
	// asked for them — the generation/scoring overlap made visible.
	Prefetched int `json:"prefetched,omitempty"`
	// Elapsed is a wall-clock duration (integer nanoseconds on the wire)
	// whose reference depends on Type: on chunk events it is the cost of
	// the generation call that produced the chunk, retries included; on
	// round events it is the offset from query start at which the round
	// opened; on score_pass events it is the scoring pass's compute time;
	// on winner events it is the total orchestration time. Zero (and
	// omitted) elsewhere.
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
}
