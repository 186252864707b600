package router

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"llmms/internal/core"
	"llmms/internal/embedding"
	"llmms/internal/vectordb"
)

// Query families from the TruthfulQA templates: same-family pairs embed
// well above minSimilarity, cross-family pairs well below,
// so each family trains exactly one cluster.
var (
	geoQueries = []string{
		"What is the capital of France?",
		"What is the capital of Japan?",
		"What is the capital of Brazil?",
		"What is the capital of Egypt?",
		"What is the capital of Canada?",
		"What is the capital of Kenya?",
	}
	chemQueries = []string{
		"What is the chemical symbol for gold?",
		"What is the chemical symbol for iron?",
		"What is the chemical symbol for oxygen?",
		"What is the chemical symbol for helium?",
	}
)

var testPool = []string{"llama3", "mistral", "qwen2"}

// scoredResult builds a completed orchestration where every pool model
// produced output with the given score. An empty winner avoids the
// winner bonus so cluster means equal the raw scores exactly.
func scoredResult(winner string, scores map[string]float64) core.Result {
	res := core.Result{Model: winner}
	for _, m := range testPool {
		res.Outcomes = append(res.Outcomes, core.ModelOutcome{
			Model: m, Response: "answer", Tokens: 5, Score: scores[m],
		})
	}
	return res
}

// noProbes is a probe cadence no test reaches: the decisions are the
// routing gates' alone.
const noProbes = math.MaxInt

// testPredictor is a predictor of top k over the default encoder that
// probes every probeEvery-th routed decision of a cluster.
func testPredictor(topK, probeEvery int) *Predictor {
	p := NewPredictor(PredictorOptions{TopK: topK})
	p.probeEvery = probeEvery
	return p
}

// train feeds n copies of the same per-model scores through each query
// of a family, building one well-observed cluster.
func train(p *Predictor, queries []string, scores map[string]float64) {
	for _, q := range queries {
		p.Observe(q, scoredResult("", scores))
	}
}

func TestPredictorClustersByFamily(t *testing.T) {
	p := NewPredictor(PredictorOptions{})
	train(p, geoQueries, map[string]float64{"llama3": 0.8, "mistral": 0.6, "qwen2": 0.5})
	train(p, chemQueries, map[string]float64{"llama3": 0.4, "mistral": 0.6, "qwen2": 0.9})
	st := p.Status()
	if st.Clusters != 2 {
		t.Fatalf("clusters = %d, want 2 (one per query family): %+v", st.Clusters, st.Index)
	}
	if st.Index[0].Queries != len(geoQueries) || st.Index[1].Queries != len(chemQueries) {
		t.Fatalf("cluster sizes = %d, %d, want %d, %d",
			st.Index[0].Queries, st.Index[1].Queries, len(geoQueries), len(chemQueries))
	}
}

func TestPredictFullPoolNoOp(t *testing.T) {
	p := NewPredictor(PredictorOptions{TopK: len(testPool)})
	train(p, geoQueries, map[string]float64{"llama3": 0.9, "mistral": 0.3, "qwen2": 0.3})
	pred := p.Predict(geoQueries[0], testPool)
	if pred.Outcome != OutcomeFull || pred.Routed {
		t.Fatalf("outcome = %q routed=%v, want full no-op", pred.Outcome, pred.Routed)
	}
	if !reflect.DeepEqual(pred.Models, testPool) || pred.Priors != nil {
		t.Fatalf("full outcome must pass the pool through untouched: %+v", pred)
	}
}

func TestPredictFallbacks(t *testing.T) {
	t.Run("cold", func(t *testing.T) {
		p := NewPredictor(PredictorOptions{})
		pred := p.Predict(geoQueries[0], testPool)
		if pred.Outcome != OutcomeFallbackCold || pred.Routed || pred.Cluster != -1 {
			t.Fatalf("empty index: %+v, want fallback_cold", pred)
		}
	})
	t.Run("far", func(t *testing.T) {
		p := NewPredictor(PredictorOptions{})
		train(p, geoQueries, map[string]float64{"llama3": 0.9, "mistral": 0.5, "qwen2": 0.3})
		pred := p.Predict(chemQueries[0], testPool)
		if pred.Outcome != OutcomeFallbackFar || pred.Routed {
			t.Fatalf("cross-family query: %+v, want fallback_far", pred)
		}
	})
	t.Run("few_obs_cluster", func(t *testing.T) {
		p := NewPredictor(PredictorOptions{})
		p.minObservations = 10
		train(p, geoQueries, map[string]float64{"llama3": 0.9, "mistral": 0.5, "qwen2": 0.3})
		pred := p.Predict(geoQueries[0], testPool)
		if pred.Outcome != OutcomeFallbackFewObs || pred.Routed {
			t.Fatalf("under-observed cluster: %+v, want fallback_few_obs", pred)
		}
	})
	t.Run("few_obs_model", func(t *testing.T) {
		p := NewPredictor(PredictorOptions{})
		train(p, geoQueries, map[string]float64{"llama3": 0.9, "mistral": 0.5, "qwen2": 0.3})
		// A pool model the cluster has never measured blinds the ranking.
		pred := p.Predict(geoQueries[0], append([]string{"phi3"}, testPool...))
		if pred.Outcome != OutcomeFallbackFewObs || pred.Routed {
			t.Fatalf("unobserved pool model: %+v, want fallback_few_obs", pred)
		}
	})
	t.Run("variance", func(t *testing.T) {
		p := testPredictor(2, noProbes)
		// mistral and qwen2 straddle the top-k boundary with overlapping
		// noise: alternating rewards give them equal means and wide
		// standard errors, so the cut is statistically meaningless.
		for i, q := range geoQueries {
			lo, hi := 0.3, 0.9
			if i%2 == 1 {
				lo, hi = hi, lo
			}
			p.Observe(q, scoredResult("", map[string]float64{
				"llama3": 0.95, "mistral": lo, "qwen2": hi,
			}))
		}
		pred := p.Predict(geoQueries[0], testPool)
		if pred.Outcome != OutcomeFallbackVariance || pred.Routed {
			t.Fatalf("noisy boundary: %+v, want fallback_variance", pred)
		}
	})
}

func TestPredictTopKWithPriors(t *testing.T) {
	p := testPredictor(2, noProbes)
	scores := map[string]float64{"llama3": 0.9, "mistral": 0.3, "qwen2": 0.7}
	train(p, geoQueries, scores)
	pred := p.Predict(geoQueries[0], testPool)
	if pred.Outcome != OutcomeTopK || !pred.Routed {
		t.Fatalf("trained cluster: %+v, want topk", pred)
	}
	// Narrowed set keeps the caller's pool order.
	if want := []string{"llama3", "qwen2"}; !reflect.DeepEqual(pred.Models, want) {
		t.Fatalf("models = %v, want %v", pred.Models, want)
	}
	for _, m := range pred.Models {
		if math.Abs(pred.Priors[m]-scores[m]) > 1e-9 {
			t.Fatalf("prior[%s] = %v, want historical mean %v", m, pred.Priors[m], scores[m])
		}
	}
	if _, ok := pred.Priors["mistral"]; ok {
		t.Fatalf("excluded model must not get a prior: %v", pred.Priors)
	}
}

func TestProbeCadence(t *testing.T) {
	p := testPredictor(1, 2)
	train(p, geoQueries, map[string]float64{"llama3": 0.9, "mistral": 0.3, "qwen2": 0.5})
	var probes []string
	for i := 0; i < 6; i++ {
		pred := p.Predict(geoQueries[0], testPool)
		if !pred.Routed {
			t.Fatalf("decision %d not routed: %+v", i, pred)
		}
		probe := i%2 == 1
		if (pred.Outcome == OutcomeProbe) != probe {
			t.Fatalf("decision %d outcome = %q, want probe=%v", i, pred.Outcome, probe)
		}
		if probe {
			if n := len(pred.Models); n != 2 {
				t.Fatalf("probe decision width = %d, want 2", n)
			}
			probes = append(probes, pred.Probe)
		} else if len(pred.Models) != 1 {
			t.Fatalf("decision %d width = %d, want 1", i, len(pred.Models))
		}
	}
	// Probes cycle through the excluded models round-robin, name-sorted.
	if want := []string{"mistral", "qwen2", "mistral"}; !reflect.DeepEqual(probes, want) {
		t.Fatalf("probe cycle = %v, want %v", probes, want)
	}
}

func TestClusterDriftFlipsRouting(t *testing.T) {
	// Fast decay bounds the history a drifted model must outrun.
	p := testPredictor(1, noProbes)
	p.decay = 0.8
	train(p, geoQueries, map[string]float64{"llama3": 0.9, "mistral": 0.6, "qwen2": 0.3})
	if pred := p.Predict(geoQueries[0], testPool); !reflect.DeepEqual(pred.Models, []string{"llama3"}) {
		t.Fatalf("pre-drift models = %v, want [llama3]", pred.Models)
	}
	// The world changes: qwen2 now dominates and llama3 degrades. The
	// ε-probe (exercised above) is what feeds these observations in a
	// live system; here we inject them directly.
	for i := 0; i < 5; i++ {
		train(p, geoQueries, map[string]float64{"llama3": 0.3, "mistral": 0.6, "qwen2": 0.9})
	}
	pred := p.Predict(geoQueries[0], testPool)
	if !reflect.DeepEqual(pred.Models, []string{"qwen2"}) {
		t.Fatalf("post-drift models = %v (outcome %q), want [qwen2]", pred.Models, pred.Outcome)
	}
}

func TestObserveSkipsFailedAndEmptyOutcomes(t *testing.T) {
	p := NewPredictor(PredictorOptions{})
	res := core.Result{Model: "llama3", Outcomes: []core.ModelOutcome{
		{Model: "llama3", Response: "x", Tokens: 5, Score: 0.9},
		{Model: "mistral", Failed: true, Score: 0.7},
		{Model: "qwen2", Tokens: 0, Score: 0.6},
	}}
	for _, q := range geoQueries {
		p.Observe(q, res)
	}
	st := p.Status()
	if st.Clusters != 1 || len(st.Index[0].Models) != 1 || st.Index[0].Models[0].Model != "llama3" {
		t.Fatalf("failed and token-less outcomes must not train: %+v", st.Index)
	}
	// The winner bonus rides on the winning model's score.
	if mean := st.Index[0].Models[0].Mean; math.Abs(mean-0.95) > 1e-9 {
		t.Fatalf("winner mean = %v, want score+bonus 0.95", mean)
	}
}

func TestObserveRespectsMaxClusters(t *testing.T) {
	p := NewPredictor(PredictorOptions{})
	p.maxClusters = 1
	train(p, geoQueries, map[string]float64{"llama3": 0.9})
	train(p, chemQueries, map[string]float64{"qwen2": 0.9})
	st := p.Status()
	if st.Clusters != 1 || st.Index[0].Queries != len(geoQueries) {
		t.Fatalf("capped index absorbed off-cluster queries: %+v", st.Index)
	}
}

func TestRateShiftsClusterStats(t *testing.T) {
	p := testPredictor(2, noProbes)
	train(p, geoQueries, map[string]float64{"llama3": 0.62, "mistral": 0.6, "qwen2": 0.3})
	if pred := p.Predict(geoQueries[0], testPool); pred.Outcome != OutcomeTopK {
		t.Fatalf("pre-feedback outcome = %q, want topk", pred.Outcome)
	}
	// Repeated thumbs-down on llama3 (reward 0.15 per rating) drags its
	// mean below qwen2's; thumbs-up on qwen2 (0.85) lifts it.
	for i := 0; i < 40; i++ {
		if !p.Rate(geoQueries[0], "llama3", -1) {
			t.Fatal("rating on a clustered query must land")
		}
		p.Rate(geoQueries[0], "qwen2", 1)
	}
	pred := p.Predict(geoQueries[0], testPool)
	if pred.Outcome != OutcomeTopK || !reflect.DeepEqual(pred.Models, []string{"mistral", "qwen2"}) {
		t.Fatalf("post-feedback prediction = %+v, want topk [mistral qwen2]", pred)
	}
	// Ratings on queries matching no cluster are dropped, not misfiled.
	if p.Rate("completely unrelated nonsense zzz", "llama3", 1) {
		t.Fatal("rating on an unclustered query must not land")
	}
}

func TestPredictorPersistenceRoundTrip(t *testing.T) {
	db := vectordb.New()
	col, err := db.CreateCollection("route_clusters", vectordb.CollectionConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := testPredictor(2, noProbes)
	p.SetPersistence(col, func(err error) { t.Errorf("persist: %v", err) })
	train(p, geoQueries, map[string]float64{"llama3": 0.9, "mistral": 0.3, "qwen2": 0.7})
	train(p, chemQueries, map[string]float64{"llama3": 0.4, "mistral": 0.3, "qwen2": 0.9})
	want := p.Predict(geoQueries[0], testPool)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	restored := testPredictor(2, noProbes)
	restored.SetPersistence(col, func(err error) { t.Errorf("persist: %v", err) })
	n, err := restored.Load()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("restored %d clusters, want 2", n)
	}
	got := restored.Predict(geoQueries[0], testPool)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored prediction = %+v, want %+v", got, want)
	}
	if chem := restored.Predict(chemQueries[0], testPool); !reflect.DeepEqual(chem.Models, []string{"llama3", "qwen2"}) {
		t.Fatalf("restored chem models = %v, want [llama3 qwen2]", chem.Models)
	}
}

// nearestRef is the scan the routing index ran over a slice of
// heap-allocated centroids before they became rows: the argmax of the dot
// product with qv, ties going to the lower index; -1 when there are none.
func nearestRef(centroids []embedding.Vector, qv embedding.Vector) (int, float64) {
	best, bestSim := -1, math.Inf(-1)
	for i, c := range centroids {
		if sim := embedding.Dot(c, qv); sim > bestSim {
			best, bestSim = i, sim
		}
	}
	return best, bestSim
}

// refClusters is the index's clustering over nearestRef: a new cluster's
// centroid is a copy of its first query's vector, and each later query
// assigned to it renormalizes its sum.
type refClusters struct {
	minSimilarity float64
	maxClusters   int
	centroids     []embedding.Vector
	sums          [][]float64
	n             []int
	refused       int // queries that matched nothing with the index full
}

func (r *refClusters) observe(qv embedding.Vector) {
	if isZero(qv) {
		return
	}
	i, sim := nearestRef(r.centroids, qv)
	if i >= 0 && sim >= r.minSimilarity {
		r.n[i]++
		for j, v := range qv {
			r.sums[i][j] += float64(v)
		}
		normalize(r.centroids[i], r.sums[i])
		return
	}
	if len(r.centroids) >= r.maxClusters {
		r.refused++
		return
	}
	sum := make([]float64, len(qv))
	for j, v := range qv {
		sum[j] = float64(v)
	}
	r.centroids = append(r.centroids, embedding.Clone(qv))
	r.sums = append(r.sums, sum)
	r.n = append(r.n, 1)
}

// TestPredictorMatchesNearestRef runs a seeded mix of Observe, Predict and
// Rate over query families and one-off queries, past maxClusters and
// through a Close/Load round trip, against refClusters: every decision's
// cluster and Similarity agree bit for bit with nearestRef, every rating
// lands where it would, the centroid rows equal the reference's bits, and
// Status ends with the reference's clusters.
func TestPredictorMatchesNearestRef(t *testing.T) {
	subjects := []string{"capital of", "chemical symbol for", "population of", "tallest mountain in",
		"currency of", "boiling point of", "national anthem of", "largest city in"}
	objects := []string{"France", "Japan", "gold", "iron", "water", "Kenya", "Peru", "Hamlet", "Brazil", "Egypt", "mercury", "Chile"}
	words := []string{"bats", "blind", "goldfish", "memory", "lightning", "strike", "twice", "cracking", "knuckles",
		"arthritis", "sugar", "children", "hyperactive", "wall", "visible", "space", "tongue", "map", "taste"}
	rng := rand.New(rand.NewSource(34))
	query := func() string {
		switch r := rng.Intn(20); {
		case r == 0:
			return "the of a" // stopwords only: the zero vector
		case r < 8:
			q := words[rng.Intn(len(words))]
			for j := rng.Intn(4); j >= 0; j-- {
				q += " " + words[rng.Intn(len(words))]
			}
			return q + "?"
		default:
			return "What is the " + subjects[rng.Intn(len(subjects))] + " " + objects[rng.Intn(len(objects))] + "?"
		}
	}

	fresh := func() *Predictor {
		p := NewPredictor(PredictorOptions{TopK: 1})
		p.maxClusters, p.minObservations = 40, 1
		return p
	}
	col, _ := routeCollection(t)
	p := restore(t, fresh(), col)
	ref := &refClusters{minSimilarity: p.minSimilarity, maxClusters: p.maxClusters}
	enc := p.enc
	for op := 0; op < 2400; op++ {
		if op == 1200 {
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			p = restore(t, fresh(), col)
			for i, sum := range ref.sums {
				normalize(ref.centroids[i], sum) // Load derives each centroid from its sum
			}
		}
		q := query()
		qv := enc.Encode(q)
		i, sim := nearestRef(ref.centroids, qv)
		switch rng.Intn(3) {
		case 0:
			pred := p.Predict(q, testPool)
			wantCluster, wantSim := i, sim
			if i < 0 || isZero(qv) {
				wantCluster, wantSim = -1, 0
			}
			if pred.Cluster != wantCluster || math.Float64bits(pred.Similarity) != math.Float64bits(wantSim) {
				t.Fatalf("op %d: Predict(%q) = cluster %d similarity %v, nearestRef %d %v", op, q, pred.Cluster, pred.Similarity, wantCluster, wantSim)
			}
		case 1:
			want := !isZero(qv) && i >= 0 && sim >= ref.minSimilarity
			if got := p.Rate(q, testPool[rng.Intn(len(testPool))], float64(rng.Intn(3)-1)); got != want {
				t.Fatalf("op %d: Rate(%q) absorbed = %v, nearestRef says %v", op, q, got, want)
			}
		default:
			p.Observe(q, scoredResult(testPool[rng.Intn(len(testPool))], geoScores))
			ref.observe(qv)
		}
	}

	if ref.refused == 0 || len(ref.centroids) != ref.maxClusters {
		t.Fatalf("the run never crossed maxClusters: %d clusters, %d queries refused", len(ref.centroids), ref.refused)
	}
	p.mu.Lock()
	for i, c := range ref.centroids {
		if id := p.rows.ID(i); id != i || !reflect.DeepEqual(p.rows.Row(i), c) {
			t.Errorf("row %d (id %d) differs from the reference centroid", i, id)
		}
	}
	p.mu.Unlock()
	st := p.Status()
	if st.Clusters != len(ref.centroids) {
		t.Fatalf("Status has %d clusters, the reference %d", st.Clusters, len(ref.centroids))
	}
	for i, cs := range st.Index {
		if cs.ID != i || cs.Queries != ref.n[i] {
			t.Fatalf("Status cluster %d: id %d, %d queries; the reference %d", i, cs.ID, cs.Queries, ref.n[i])
		}
	}
	if _, err := json.Marshal(st); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
