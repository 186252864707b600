// Package router implements two of the paper's proposed extensions
// (§9.5) on top of the core orchestrator:
//
//   - Cognitive routing with semantic task indexing (predict.go): the
//     Predictor clusters queries in embedding space, records which models
//     historically earn the highest reward per cluster, and once a cluster
//     is confident routes new queries of that kind to the known-good model
//     subset instead of the full pool; unknown or low-confidence queries
//     fall back to full orchestration, whose outcomes feed the index.
//
//   - A natural-language configuration interface (nlconfig.go): plain
//     instructions ("avoid slow models", "prioritize qwen", "keep
//     responses under 200 tokens", "use the bandit") are parsed into
//     configuration changes by a transparent keyword grammar.
package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"llmms/internal/core"
	"llmms/internal/embedding"
	"llmms/internal/vectordb"
)

// Query-aware predictive routing (DESIGN.md "Predictive routing").
//
// The Predictor keeps the paper's "small index of which models are best
// at each task" in embedding space, the way SelectLLM routes with a
// query-aware classifier and ORI routes across a heterogeneous fleet by
// vector similarity: every completed query is embedded and assigned to an
// online cluster (leader-style online k-means: nearest centroid if the
// cosine similarity clears a threshold, a fresh cluster otherwise), and
// each cluster accumulates decayed per-model reward statistics from
// orchestration outcomes and end-user feedback ratings. These per-cluster
// stats are the system's one learned model quality: there is no global
// per-model rating beside them, and what reaches the orchestrator from
// them is the bandit's warm-start priors, never a score offset.
//
// At query time Predict probes the cluster index and — when the cluster
// is confident — narrows the fan-out to the cluster's top-k models,
// handing back their historical means as warm-start priors for the
// bandit strategies. Confidence requires all of: a matching cluster
// (else fallback_cold), similarity above minSimilarity (fallback_far),
// enough assignments and at least one observation per pool model
// (fallback_few_obs), and the worst included model separated from the
// best excluded one by more than their combined standard errors
// (fallback_variance). Any failed gate routes the full pool, whose
// outcomes keep training the index.
//
// A deterministic ε-probe keeps the index honest: every ⌈1/ε⌉-th routed
// decision of a cluster widens the subset by one excluded model, cycling
// through the exclusions round-robin, so a model that improved keeps
// getting fresh observations and can win its way back in (the
// cluster-drift property test pins this).
//
// Persistence is write-behind: Observe, Rate and a routed Predict change
// memory only and mark their cluster dirty; a flush at most routeFlushEvery
// later writes every dirty cluster in one multi-document Upsert, off the
// query path. The index is advisory state learned over many queries, so a
// crash loses at most that window of it; Close flushes what is left.

// routeFlushEvery is how long a cluster change may wait in memory before it
// is written. Not an option: nothing needs to tune it.
const routeFlushEvery = time.Second

// Routing outcome labels, used for Prediction.Outcome and the
// llmms_route_decisions_total{outcome} counter.
const (
	// OutcomeTopK is a confident narrowed fan-out.
	OutcomeTopK = "topk"
	// OutcomeProbe is a narrowed fan-out widened by one ε-probe model.
	OutcomeProbe = "probe"
	// OutcomeFull means routing was a no-op: k covers the whole pool.
	OutcomeFull = "full"
	// OutcomeFallbackCold: no cluster matched the query at all.
	OutcomeFallbackCold = "fallback_cold"
	// OutcomeFallbackFar: the nearest centroid is below minSimilarity.
	OutcomeFallbackFar = "fallback_far"
	// OutcomeFallbackFewObs: the cluster or a pool model lacks history.
	OutcomeFallbackFewObs = "fallback_few_obs"
	// OutcomeFallbackVariance: the top-k boundary is inside the noise.
	OutcomeFallbackVariance = "fallback_variance"
)

// PredictorOptions configures a Predictor.
type PredictorOptions struct {
	// TopK is how many models a confidently routed query fans out to.
	// Default 2.
	TopK int
}

// The routing index's constants. NewPredictor copies them into the
// Predictor, where in-package tests shorten them to reach a behaviour in
// a few queries.
const (
	// minObservations is how many queries a cluster must have absorbed
	// before it may narrow the fan-out.
	minObservations = 3
	// minSimilarity is the cosine similarity a query needs to its nearest
	// centroid — below it the query is treated as outside the cluster
	// (assignment creates a new cluster; prediction falls back). 0.5 sits
	// between measured same-template families (≥ 0.6) and cross-family
	// pairs (≤ 0.35) of the default encoder.
	minSimilarity = 0.5
	// probeEvery is the ε-probe cadence ⌈1/ε⌉ for ε = 0.1: every 10th
	// routed decision of a cluster includes one excluded model.
	probeEvery = 10
	// maxClusters caps the index size; once full, queries that match no
	// existing cluster stop creating new ones (they still fall back to
	// the full pool).
	maxClusters = 512
	// decay exponentially ages the per-(cluster, model) reward stats on
	// every new observation, bounding the history a drifted model must
	// outrun: an effective window of ~50 observations.
	decay = 0.98
)

// winnerBonus is added to the winning model's reward observation: the
// orchestrator's selection is a judgment the raw score does not carry.
const winnerBonus = 0.05

// modelStats holds exponentially decayed sufficient statistics of one
// model's rewards within one cluster: weight (effective observation
// count), sum, and sum of squares.
type modelStats struct {
	W     float64 `json:"w"`
	Sum   float64 `json:"sum"`
	SumSq float64 `json:"sumsq"`
}

func (s *modelStats) add(r, decay float64) {
	s.W = s.W*decay + 1
	s.Sum = s.Sum*decay + r
	s.SumSq = s.SumSq*decay + r*r
}

func (s *modelStats) mean() float64 {
	if s == nil || s.W == 0 {
		return 0
	}
	return s.Sum / s.W
}

// stderr is the standard error of the decayed mean: sqrt(var/W). It is
// what the variance confidence gate compares across the top-k boundary.
func (s *modelStats) stderr() float64 {
	if s == nil || s.W == 0 {
		return math.Inf(1)
	}
	mean := s.Sum / s.W
	variance := s.SumSq/s.W - mean*mean
	if variance < 0 {
		variance = 0
	}
	return math.Sqrt(variance / s.W)
}

// cluster is one online centroid with its reward history. The centroid,
// sum scaled to unit length, is the cluster's row in Predictor.rows.
type cluster struct {
	id       int
	n        int       // queries assigned (raw count)
	sum      []float64 // unnormalized centroid accumulator
	stats    map[string]*modelStats
	routed   int  // routed decisions served (drives the ε cadence)
	probeIdx int  // round-robin cursor over the excluded models
	dirty    bool // changed since the last flush
}

// clusterRecord is the persisted form of a cluster: the JSON text of a
// vectordb document "c<id>" whose embedding is a one-element zero vector
// (a key-value slot, never searched). Load derives the centroid from Sum.
type clusterRecord struct {
	id       int                    // the document id's number; not in the text
	N        int                    `json:"n"`
	Sum      []float64              `json:"sum"`
	Routed   int                    `json:"routed"`
	ProbeIdx int                    `json:"probe_idx"`
	Stats    map[string]*modelStats `json:"stats"`
}

// Prediction is one routing decision.
type Prediction struct {
	// Cluster is the matched cluster id, -1 when none matched.
	Cluster int `json:"cluster"`
	// Similarity is the cosine similarity to the matched centroid.
	Similarity float64 `json:"similarity"`
	// Outcome is the decision label (topk, probe, full, fallback_*).
	Outcome string `json:"outcome"`
	// Routed reports whether the model set was actually narrowed; when
	// false, Models is the caller's pool unchanged and Priors is nil.
	Routed bool `json:"routed"`
	// Models is the fan-out set to orchestrate over.
	Models []string `json:"models"`
	// Probe names the ε-probe model appended to Models, if any.
	Probe string `json:"probe,omitempty"`
	// Priors maps each predicted top-k model to its cluster-historical
	// mean reward (the warm start for core.Config.Priors). The probe
	// model gets no prior: its stale mean is exactly what the probe is
	// re-measuring.
	Priors map[string]float64 `json:"priors,omitempty"`
}

// Predictor is the query-embedding cluster index. Safe for concurrent
// use; persistence through a vectordb collection is optional.
type Predictor struct {
	topK int
	enc  embedding.Encoder
	// The routing constants, per predictor for the tests' sake.
	minObservations int
	minSimilarity   float64
	probeEvery      int
	maxClusters     int
	decay           float64

	mu        sync.Mutex
	clusters  []*cluster
	rows      *embedding.Rows[int] // row i, under id i, is clusters[i]'s centroid
	nextID    int
	decisions map[string]uint64 // outcome label → count

	col   *vectordb.Collection // nil keeps the index in memory only
	onErr func(error)
	dirty []*cluster  // clusters changed since the last flush
	timer *time.Timer // the pending flush, armed by the first dirty mark

	// flushMu orders flushes, so a cluster's record copied under mu is
	// written before any later copy of it: the collection never goes back.
	flushMu sync.Mutex
}

// NewPredictor builds an empty index over the default encoder.
func NewPredictor(opts PredictorOptions) *Predictor {
	topK := opts.TopK
	if topK <= 0 {
		topK = 2
	}
	return newPredictor(topK, embedding.Default())
}

func newPredictor(topK int, enc embedding.Encoder) *Predictor {
	return &Predictor{
		topK: topK, enc: enc,
		minObservations: minObservations, minSimilarity: minSimilarity,
		probeEvery: probeEvery, maxClusters: maxClusters, decay: decay,
		rows: embedding.NewRows[int](enc.Dim(), 0), decisions: make(map[string]uint64),
	}
}

// SetPersistence attaches a durable collection: each cluster is one
// document, written behind the mutations that change it, and Load rebuilds
// the index from it. onErr, when non-nil, receives the failures of timed
// flushes (the index itself stays consistent in memory).
func (p *Predictor) SetPersistence(col *vectordb.Collection, onErr func(error)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.col = col
	p.onErr = onErr
}

// Load rebuilds the index from the attached collection, returning the
// number of clusters restored. A document the index could not run on is
// an error naming it, and leaves the index as it was.
func (p *Predictor) Load() (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.col == nil {
		return 0, nil
	}
	dim := p.enc.Dim()
	var clusters []*cluster
	nextID := 0
	for _, doc := range p.col.All() {
		c, err := decodeCluster(doc, dim)
		if err != nil {
			return 0, err
		}
		clusters = append(clusters, c)
		nextID = max(nextID, c.id+1)
	}
	sort.Slice(clusters, func(i, j int) bool { return clusters[i].id < clusters[j].id })
	rows, centroid := embedding.NewRows[int](dim, len(clusters)), make(embedding.Vector, dim)
	for i, c := range clusters {
		rows.Append(i, normalize(centroid, c.sum))
	}
	p.clusters, p.rows, p.nextID, p.dirty = clusters, rows, nextID, nil
	return len(clusters), nil
}

// decodeCluster rebuilds one cluster from its document. It rejects an id
// other than "c<n>", text that is not a record, a sum of another
// dimension than the encoder's (Observe would index past a shorter one),
// a negative count, a null model entry (Status reads every entry) and a
// weight under 1, which no observation leaves (w ← w·decay + 1) and whose
// mean and stderr Status could not encode.
func decodeCluster(doc vectordb.Document, dim int) (*cluster, error) {
	id, err := strconv.Atoi(strings.TrimPrefix(doc.ID, "c"))
	if err != nil || id < 0 || doc.ID != "c"+strconv.Itoa(id) {
		return nil, fmt.Errorf("router: bad cluster doc id %q", doc.ID)
	}
	var rec clusterRecord
	if err := json.Unmarshal([]byte(doc.Text), &rec); err != nil {
		return nil, fmt.Errorf("router: parse cluster %q: %w", doc.ID, err)
	}
	if len(rec.Sum) != dim {
		return nil, fmt.Errorf("router: cluster %q: sum has %d dimensions, the encoder %d", doc.ID, len(rec.Sum), dim)
	}
	if rec.N < 0 || rec.Routed < 0 || rec.ProbeIdx < 0 {
		return nil, fmt.Errorf("router: cluster %q: negative count", doc.ID)
	}
	for m, st := range rec.Stats {
		if st == nil {
			return nil, fmt.Errorf("router: cluster %q: model %q has no stats", doc.ID, m)
		}
		if st.W < 1 {
			return nil, fmt.Errorf("router: cluster %q: model %q has weight %g, under 1", doc.ID, m, st.W)
		}
	}
	if rec.Stats == nil {
		rec.Stats = make(map[string]*modelStats)
	}
	return &cluster{
		id: id, n: rec.N, sum: rec.Sum, stats: rec.Stats,
		routed: rec.Routed, probeIdx: rec.ProbeIdx,
	}, nil
}

// markLocked notes that c changed since the last flush; the first mark
// arms the flush. Callers hold p.mu.
func (p *Predictor) markLocked(c *cluster) {
	if p.col == nil || c.dirty {
		return
	}
	c.dirty = true
	p.dirty = append(p.dirty, c)
	if p.timer == nil {
		onErr := p.onErr
		p.timer = time.AfterFunc(routeFlushEvery, func() {
			if err := p.flush(false); err != nil && onErr != nil {
				onErr(err)
			}
		})
	}
}

// flush writes every cluster changed since the last flush as one
// multi-document Upsert — one WAL record, so recovery sees a flush whole
// or not at all. The records are copied under p.mu and encoded and written
// outside it, so no query waits on either. detach (Close) also lets go of
// the collection: nothing is written to it afterwards.
func (p *Predictor) flush(detach bool) error {
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	p.mu.Lock()
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
	col := p.col
	recs := make([]clusterRecord, len(p.dirty))
	for i, c := range p.dirty {
		recs[i] = c.record()
		c.dirty = false
	}
	p.dirty = p.dirty[:0]
	if detach {
		p.col, p.onErr = nil, nil
	}
	p.mu.Unlock()
	if col == nil || len(recs) == 0 {
		return nil
	}
	var errs []error
	docs := make([]vectordb.Document, 0, len(recs))
	for _, rec := range recs {
		data, err := json.Marshal(rec)
		if err != nil {
			errs = append(errs, fmt.Errorf("router: encode cluster %d: %w", rec.id, err))
			continue
		}
		docs = append(docs, vectordb.Document{
			ID:        "c" + strconv.Itoa(rec.id),
			Text:      string(data),
			Embedding: embedding.Vector{0},
		})
	}
	if err := col.Upsert(docs...); err != nil {
		errs = append(errs, fmt.Errorf("router: persist %d clusters: %w", len(docs), err))
	}
	return errors.Join(errs...)
}

// Close stops the pending flush, writes what is still dirty and detaches
// the collection; the index keeps working in memory. Server.Close calls it
// before it closes the database.
func (p *Predictor) Close() error { return p.flush(true) }

// record copies what Load reads of c.
func (c *cluster) record() clusterRecord {
	stats := make(map[string]*modelStats, len(c.stats))
	for m, st := range c.stats {
		cp := *st
		stats[m] = &cp
	}
	return clusterRecord{
		id: c.id, N: c.n, Sum: slices.Clone(c.sum),
		Routed: c.routed, ProbeIdx: c.probeIdx, Stats: stats,
	}
}

// Predict decides the fan-out subset for a query over the given pool.
// It never errors: every uncertain case degrades to the full pool. The
// decision is counted (Status) but only routed decisions advance the
// cluster's ε cadence.
func (p *Predictor) Predict(query string, pool []string) Prediction {
	pred := Prediction{Cluster: -1, Outcome: OutcomeFull, Models: pool}
	k := p.topK
	if k >= len(pool) {
		// Routing is a no-op: full orchestration, no priors, so the
		// k = len(models) path stays byte-identical to an unrouted run.
		p.count(OutcomeFull)
		return pred
	}
	qv, acc := embedding.Borrow(p.enc, query)
	defer acc.Release()
	p.mu.Lock()
	defer p.mu.Unlock()
	var top [1]embedding.Hit[int]
	near := p.rows.TopK(qv, 1, top[:0])
	if len(near) == 0 || isZero(qv) {
		pred.Outcome = OutcomeFallbackCold
		p.countLocked(OutcomeFallbackCold)
		return pred
	}
	c := p.clusters[near[0].ID]
	pred.Cluster = c.id
	pred.Similarity = near[0].Score
	if pred.Similarity < p.minSimilarity {
		pred.Outcome = OutcomeFallbackFar
		p.countLocked(OutcomeFallbackFar)
		return pred
	}
	if c.n < p.minObservations {
		pred.Outcome = OutcomeFallbackFewObs
		p.countLocked(OutcomeFallbackFewObs)
		return pred
	}
	type ranked struct {
		model string
		stats *modelStats
	}
	rs := make([]ranked, 0, len(pool))
	for _, m := range pool {
		st := c.stats[m]
		if st == nil || st.W < 1 {
			// An unobserved pool model means the ranking is blind to it:
			// run the full pool so it gets measured.
			pred.Outcome = OutcomeFallbackFewObs
			p.countLocked(OutcomeFallbackFewObs)
			return pred
		}
		rs = append(rs, ranked{model: m, stats: st})
	}
	sort.SliceStable(rs, func(i, j int) bool {
		mi, mj := rs[i].stats.mean(), rs[j].stats.mean()
		if mi != mj {
			return mi > mj
		}
		return rs[i].model < rs[j].model
	})
	// Variance gate: the boundary between the worst included and the
	// best excluded model must be wider than their combined standard
	// errors, or the cut is noise and the full pool should decide.
	worstIn, bestOut := rs[k-1], rs[k]
	gap := worstIn.stats.mean() - bestOut.stats.mean()
	if gap < worstIn.stats.stderr()+bestOut.stats.stderr() {
		pred.Outcome = OutcomeFallbackVariance
		p.countLocked(OutcomeFallbackVariance)
		return pred
	}

	included := make(map[string]bool, k)
	pred.Priors = make(map[string]float64, k)
	for _, r := range rs[:k] {
		included[r.model] = true
		pred.Priors[r.model] = r.stats.mean()
	}
	// Keep the caller's pool order for the narrowed set: deterministic,
	// and stable against rank churn among the included models.
	models := make([]string, 0, k+1)
	for _, m := range pool {
		if included[m] {
			models = append(models, m)
		}
	}
	pred.Routed = true
	pred.Outcome = OutcomeTopK

	// Deterministic ε-probe: every ⌈1/ε⌉-th routed decision widens the
	// subset by the next excluded model (name-sorted round-robin), so
	// the index keeps measuring what it excluded.
	c.routed++
	p.markLocked(c)
	if c.routed%p.probeEvery == 0 {
		excluded := make([]string, 0, len(rs)-k)
		for _, r := range rs[k:] {
			excluded = append(excluded, r.model)
		}
		sort.Strings(excluded)
		probe := excluded[c.probeIdx%len(excluded)]
		c.probeIdx++
		models = append(models, probe)
		pred.Probe = probe
		pred.Outcome = OutcomeProbe
	}
	pred.Models = models
	p.countLocked(pred.Outcome)
	return pred
}

// Observe feeds one completed orchestration back into the index: the
// query is assigned to its cluster (creating one when nothing is close
// enough and the cap allows), and every model that produced output
// contributes its final score — plus a winner bonus for the selected
// model — as a reward observation.
func (p *Predictor) Observe(query string, res core.Result) {
	qv, acc := embedding.Borrow(p.enc, query)
	defer acc.Release()
	if isZero(qv) {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var top [1]embedding.Hit[int]
	near := p.rows.TopK(qv, 1, top[:0])
	var c *cluster
	if len(near) == 0 || near[0].Score < p.minSimilarity {
		if len(p.clusters) >= p.maxClusters {
			return
		}
		c = &cluster{id: p.nextID, n: 1, sum: make([]float64, len(qv)), stats: make(map[string]*modelStats)}
		for i, v := range qv {
			c.sum[i] = float64(v)
		}
		p.nextID++
		p.rows.Append(len(p.clusters), qv)
		p.clusters = append(p.clusters, c)
	} else {
		c = p.clusters[near[0].ID]
		c.n++
		for i, v := range qv {
			c.sum[i] += float64(v)
		}
		normalize(p.rows.Row(near[0].ID), c.sum)
	}
	for _, out := range res.Outcomes {
		if out.Failed || out.Tokens == 0 {
			continue
		}
		r := out.Score
		if out.Model == res.Model {
			r += winnerBonus
		}
		st := c.stats[out.Model]
		if st == nil {
			st = &modelStats{}
			c.stats[out.Model] = st
		}
		st.add(r, p.decay)
	}
	p.markLocked(c)
}

// Rate feeds one end-user feedback rating (clamped to [-1, 1]) into the
// rated model's stats on the cluster of the query it answered. The
// rating maps onto the score scale as 0.5 + 0.35·rating, so a thumbs-up
// lands near a strong score and a thumbs-down near a weak one. The
// query must match an existing cluster — feedback never creates or
// moves centroids. Reports whether a cluster absorbed the rating; like
// Observe, it only marks the cluster dirty for the write-behind flush.
func (p *Predictor) Rate(query, model string, rating float64) bool {
	if model == "" {
		return false
	}
	rating = math.Max(-1, math.Min(1, rating))
	qv, acc := embedding.Borrow(p.enc, query)
	defer acc.Release()
	if isZero(qv) {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var top [1]embedding.Hit[int]
	near := p.rows.TopK(qv, 1, top[:0])
	if len(near) == 0 || near[0].Score < p.minSimilarity {
		return false
	}
	c := p.clusters[near[0].ID]
	st := c.stats[model]
	if st == nil {
		st = &modelStats{}
		c.stats[model] = st
	}
	st.add(0.5+0.35*rating, p.decay)
	p.markLocked(c)
	return true
}

// ClusterModelStatus is one model's standing within one cluster.
type ClusterModelStatus struct {
	Model        string  `json:"model"`
	Observations float64 `json:"observations"` // decayed effective count
	Mean         float64 `json:"mean"`
	StdErr       float64 `json:"stderr"`
}

// ClusterStatus is the transparent view of one cluster.
type ClusterStatus struct {
	ID      int                  `json:"id"`
	Queries int                  `json:"queries"`
	Routed  int                  `json:"routed"`
	Models  []ClusterModelStatus `json:"models"`
}

// Status is the GET /api/router payload.
type Status struct {
	TopK            int               `json:"top_k"`
	MinObservations int               `json:"min_observations"`
	MinSimilarity   float64           `json:"min_similarity"`
	Epsilon         float64           `json:"epsilon"`
	Clusters        int               `json:"clusters"`
	Decisions       map[string]uint64 `json:"decisions"`
	Index           []ClusterStatus   `json:"index"`
}

// Status snapshots the index for the status endpoint.
func (p *Predictor) Status() Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Status{
		TopK:            p.topK,
		MinObservations: p.minObservations,
		MinSimilarity:   p.minSimilarity,
		Epsilon:         1 / float64(p.probeEvery),
		Clusters:        len(p.clusters),
		Decisions:       make(map[string]uint64, len(p.decisions)),
		Index:           make([]ClusterStatus, 0, len(p.clusters)),
	}
	for k, v := range p.decisions {
		st.Decisions[k] = v
	}
	for _, c := range p.clusters {
		cs := ClusterStatus{ID: c.id, Queries: c.n, Routed: c.routed}
		for m, ms := range c.stats {
			cs.Models = append(cs.Models, ClusterModelStatus{
				Model: m, Observations: ms.W, Mean: ms.mean(), StdErr: ms.stderr(),
			})
		}
		sort.Slice(cs.Models, func(i, j int) bool {
			if cs.Models[i].Mean != cs.Models[j].Mean {
				return cs.Models[i].Mean > cs.Models[j].Mean
			}
			return cs.Models[i].Model < cs.Models[j].Model
		})
		st.Index = append(st.Index, cs)
	}
	return st
}

func (p *Predictor) count(outcome string) {
	p.mu.Lock()
	p.countLocked(outcome)
	p.mu.Unlock()
}

func (p *Predictor) countLocked(outcome string) { p.decisions[outcome]++ }

// normalize writes sum scaled to unit length into dst, which has sum's
// length, and returns dst; a zero sum is the zero vector. Observe moves a
// centroid's row in place: no query allocates one.
func normalize(dst embedding.Vector, sum []float64) embedding.Vector {
	var norm float64
	for _, x := range sum {
		norm += x * x
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		clear(dst)
		return dst
	}
	for i, x := range sum {
		dst[i] = float32(x / norm)
	}
	return dst
}

func isZero(v embedding.Vector) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}
