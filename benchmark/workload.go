package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"llmms/internal/embedding"
	"llmms/internal/qcache"
	"llmms/internal/truthfulqa"
)

// The workload generator. Every phase of a run is a fixed, seeded
// operation list: the SUT receives only these requests, and everything a
// run reports except its timings is a function of (workload, seed,
// seconds). The seed decides order, pairing and draws; the population
// each workload draws from (which questions, which strategy each gets,
// which questions are hot, which families sessions cycle over) is fixed,
// so truthfulness and token spend are comparable between seeds.

// Operation kinds.
const (
	kindQuery  = "query"
	kindUpload = "upload"
	kindDelete = "delete"
)

// Operation classes: what the generator meant an operation to exercise.
// The checker compares outcomes to classes only in aggregate (the cache
// decides what is a hit, not the generator).
const (
	classFanout  = "fanout"
	classHot     = "hot"          // zipfian repeat over the hot set
	classDupNorm = "neardup_norm" // differs from a hot question only under qcache.Normalize
	classDupSem  = "neardup_sem"  // paraphrase above the semantic threshold
	classPair    = "pair"         // both clients send the same cold question at one barrier
	classScan    = "scan"         // cyclic scan, reuse distance above the cache's capacity
	classSession = "session"
	classWrite   = "write"
)

// op is one request the load generator sends.
type op struct {
	Kind  string `json:"kind"`
	Class string `json:"class"`
	// Item is the index of the question's item in the knowledge base, the
	// reference the answer is scored against.
	Item      int    `json:"item"`
	Query     string `json:"query,omitempty"`
	Strategy  string `json:"strategy,omitempty"`
	MaxTokens int    `json:"max_tokens,omitempty"`
	UseRAG    bool   `json:"use_rag,omitempty"`
	// Turn, when positive, is the operation's place in its unit's session:
	// turn 1 opens the session, later turns send the id turn 1 got back.
	Turn int `json:"turn,omitempty"`
	// Barrier marks the two halves of a duplicate pair (1, then 2, in
	// adjacent units): the two clients wait for each other before sending.
	Barrier int `json:"barrier,omitempty"`
	// Doc is the document an upload creates or a delete removes, as an
	// index into plan.Docs.
	Doc int `json:"doc,omitempty"`
}

// doc is a document for RAG: preloaded during set-up or uploaded by a
// write operation.
type doc struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// plan is a workload's complete input.
type plan struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Docs holds every document; the first Preload are ingested during
	// set-up.
	Docs    []doc `json:"docs,omitempty"`
	Preload int   `json:"preload,omitempty"`
	// Warmup runs on one client before the measured phase.
	Warmup []op `json:"warmup"`
	// Units are the measured phase, in the order the clients take them: a
	// client takes the next unit when it has finished its last, and sends
	// a unit's operations in order on its own connection. A unit is one
	// operation, or a whole session.
	Units [][]op `json:"units"`
}

// hash identifies a plan's bytes.
func (p *plan) hash() string {
	data, err := json.Marshal(p)
	if err != nil {
		panic(err) // plain data
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ops returns the measured operations in unit order.
func (p *plan) ops() []op {
	var out []op
	for _, u := range p.Units {
		out = append(out, u...)
	}
	return out
}

// strategyCycle is the fan-out strategy mix, 2:1:1.
var strategyCycle = []string{"oua", "mab", "oua", "hybrid"}

// generate builds the plan for a workload. count is the measured
// operation target (spec.OpsPerSecond × seconds, or a scaled-down count in
// tests); warmup the warm-up length.
func generate(spec workloadSpec, seed int64, count, warmup int) (*plan, error) {
	ds := truthfulqa.Generate(datasetSize, datasetSeed)
	rng := rand.New(rand.NewSource(seed))
	p := &plan{Workload: spec.Name, Seed: seed}
	switch {
	case spec.Agent:
		genAgent(p, ds, rng, count, warmup)
	case spec.Serving:
		if err := genRepeatMix(p, ds, rng, count, warmup); err != nil {
			return nil, err
		}
	default:
		genFanout(p, ds, rng, count, warmup)
	}
	return p, nil
}

// strided returns n indices spread evenly over [0, total).
func strided(n, total int) []int {
	out := make([]int, n)
	for k := range out {
		out[k] = k * total / n
	}
	return out
}

// fanoutOps returns n fan-out queries: whole cycles over every item, the
// strategy of item j in cycle c being strategyCycle[(j+c)%4], then an
// evenly strided remainder. The multiset is the same for every seed.
func fanoutOps(ds truthfulqa.Dataset, n int) []op {
	ops := make([]op, 0, n)
	add := func(j, c int) {
		ops = append(ops, op{
			Kind: kindQuery, Class: classFanout, Item: j, Query: ds[j].Question,
			Strategy: strategyCycle[(j+c)%len(strategyCycle)], MaxTokens: fanoutBudget,
		})
	}
	cycles := n / len(ds)
	for c := 0; c < cycles; c++ {
		for j := range ds {
			add(j, c)
		}
	}
	for _, j := range strided(n-len(ops), len(ds)) {
		add(j, cycles)
	}
	return ops
}

func genFanout(p *plan, ds truthfulqa.Dataset, rng *rand.Rand, count, warmup int) {
	ops := fanoutOps(ds, count)
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for _, o := range ops {
		p.Units = append(p.Units, []op{o})
	}
	p.Warmup = fanoutOps(ds, warmup)
	rng.Shuffle(len(p.Warmup), func(i, j int) { p.Warmup[i], p.Warmup[j] = p.Warmup[j], p.Warmup[i] })
}

// repeat_mix constants.
const (
	hotSetSize = 200
	zipfS      = 1.1
	// Shares of measured operations by class; the rest is the scan.
	shareHot  = 0.60
	shareDup  = 0.10
	sharePair = 0.05
)

// nearDuplicates returns, for question q, a variant that differs only
// under qcache.Normalize and a paraphrase that does not normalise equal
// but embeds above the semantic threshold, both verified here. ok is
// false when no candidate paraphrase clears the threshold.
func nearDuplicates(q string) (norm, sem string, ok bool) {
	norm = "  " + strings.ToUpper(q) + "\t "
	if qcache.Normalize(norm) != qcache.Normalize(q) || norm == q {
		return "", "", false
	}
	enc := embedding.Default()
	base := enc.Encode(qcache.Normalize(q))
	for _, cand := range []string{
		strings.TrimRight(q, "?.! "),
		q + "?",
		strings.TrimRight(q, "?.! ") + " ?",
		"So, " + q,
	} {
		if qcache.Normalize(cand) == qcache.Normalize(q) {
			continue
		}
		// A margin over the threshold, so a float-rounding difference in the
		// cache's own probe cannot turn a verified paraphrase into a miss.
		if embedding.Cosine(base, enc.Encode(qcache.Normalize(cand))) >= qcache.DefaultSemanticThreshold+0.005 {
			return norm, cand, true
		}
	}
	return "", "", false
}

func genRepeatMix(p *plan, ds truthfulqa.Dataset, rng *rand.Rand, count, warmup int) error {
	isHot := make(map[int]bool, hotSetSize)
	hot := strided(hotSetSize, len(ds)) // rank r is hot[r]
	for _, j := range hot {
		isHot[j] = true
	}
	var cold []int
	for j := range ds {
		if !isHot[j] {
			cold = append(cold, j)
		}
	}
	type dup struct{ norm, sem string }
	dups := make(map[int]dup, hotSetSize)
	for _, j := range hot {
		n, s, ok := nearDuplicates(ds[j].Question)
		if !ok {
			return fmt.Errorf("no verified paraphrase for hot question %q", ds[j].Question)
		}
		dups[j] = dup{n, s}
	}
	zipf := rand.NewZipf(rng, zipfS, 1, hotSetSize-1)
	query := func(class string, j int, text string) op {
		return op{Kind: kindQuery, Class: class, Item: j, Query: text}
	}
	scanAt := rng.Intn(len(cold))
	nextCold := func() int {
		j := cold[scanAt%len(cold)]
		scanAt++
		return j
	}

	// Exact class counts in a seeded order. A pair is one slot that becomes
	// two adjacent single-operation units: the client that takes the first
	// waits, so the other client necessarily takes the second.
	pairs := int(math.Round(float64(count) * sharePair / 2))
	nHot := int(math.Round(float64(count) * shareHot))
	nDup := int(math.Round(float64(count)*shareDup/2)) * 2
	singles := count - 2*pairs
	classes := make([]string, 0, singles)
	for i := 0; i < singles; i++ {
		switch {
		case i < nHot:
			classes = append(classes, classHot)
		case i < nHot+nDup/2:
			classes = append(classes, classDupNorm)
		case i < nHot+nDup:
			classes = append(classes, classDupSem)
		default:
			classes = append(classes, classScan)
		}
	}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	slots := singles + pairs
	pairAt := make(map[int]bool, pairs)
	for _, k := range strided(pairs, slots) {
		pairAt[k] = true
	}
	next := 0
	for k := 0; k < slots; k++ {
		if pairAt[k] {
			j := nextCold()
			first, second := query(classPair, j, ds[j].Question), query(classPair, j, ds[j].Question)
			first.Barrier, second.Barrier = 1, 2
			p.Units = append(p.Units, []op{first}, []op{second})
			continue
		}
		var o op
		switch c := classes[next]; c {
		case classHot:
			j := hot[zipf.Uint64()]
			o = query(c, j, ds[j].Question)
		case classDupNorm:
			j := hot[zipf.Uint64()]
			o = query(c, j, dups[j].norm)
		case classDupSem:
			j := hot[zipf.Uint64()]
			o = query(c, j, dups[j].sem)
		default:
			j := nextCold()
			o = query(c, j, ds[j].Question)
		}
		next++
		p.Units = append(p.Units, []op{o})
	}

	// Warm-up: three tenths of it cold questions (misses, which is where
	// set-up's time goes), then the hot set once each in rank order, which
	// pushes the cold entries out again, then zipfian repeats.
	for i := 0; i < warmup; i++ {
		switch coldN := warmup * 3 / 10; {
		case i < coldN:
			j := cold[i%len(cold)]
			p.Warmup = append(p.Warmup, query(classScan, j, ds[j].Question))
		case i < coldN+hotSetSize:
			j := hot[i-coldN]
			p.Warmup = append(p.Warmup, query(classHot, j, ds[j].Question))
		default:
			j := hot[zipf.Uint64()]
			p.Warmup = append(p.Warmup, query(classHot, j, ds[j].Question))
		}
	}
	return nil
}

// agent_sessions constants.
const (
	sessionTurns = 8
	// sessionsPerWrite sessions, then a write: every 25th operation.
	sessionsPerWrite = 3
	writeEvery       = sessionsPerWrite*sessionTurns + 1
	// familyMin is the smallest category that can fill a session; the
	// families are the categories with at least this many questions.
	familyMin = sessionTurns
	// familyDocItems caps how many of a family's items the corpus covers.
	familyDocItems = 48
	// docFacts is the number of question/answer facts per preloaded
	// document; uploadFacts per uploaded one.
	docFacts    = 16
	uploadFacts = 4
	// populationSeed draws the sessions, the same for every plan seed.
	populationSeed = 0x5e5510
)

// families returns the knowledge base's categories with at least
// familyMin items, sorted by name, each with its item indices.
func families(ds truthfulqa.Dataset) (names []string, items map[string][]int) {
	items = make(map[string][]int)
	for j, it := range ds {
		items[it.Category] = append(items[it.Category], j)
	}
	for name, js := range items {
		if len(js) >= familyMin {
			names = append(names, name)
		} else {
			delete(items, name)
		}
	}
	sort.Strings(names)
	return names, items
}

// factDoc renders items as a document of question-and-answer sentences.
func factDoc(ds truthfulqa.Dataset, name string, items []int) doc {
	var b strings.Builder
	for _, j := range items {
		b.WriteString(ds[j].Question)
		b.WriteByte(' ')
		b.WriteString(ds[j].BestAnswer)
		b.WriteByte('\n')
	}
	return doc{Name: name + ".txt", Text: b.String()}
}

func genAgent(p *plan, ds truthfulqa.Dataset, rng *rand.Rand, count, warmup int) {
	names, items := families(ds)

	// Corpus: each family's first familyDocItems items, docFacts per
	// document. The same for every seed.
	for _, name := range names {
		js := items[name]
		if len(js) > familyDocItems {
			js = js[:familyDocItems]
		}
		for at := 0; at < len(js); at += docFacts {
			end := min(at+docFacts, len(js))
			p.Docs = append(p.Docs, factDoc(ds, fmt.Sprintf("%s-%d", strings.ToLower(name), at/docFacts), js[at:end]))
		}
	}
	p.Preload = len(p.Docs)

	session := func(j, turn int) op {
		return op{Kind: kindQuery, Class: classSession, Item: j, Query: ds[j].Question,
			Strategy: "mab", UseRAG: true, Turn: turn}
	}

	// The sessions: eight questions from one family, families in turn,
	// drawn with a fixed seed so every plan seed runs the same sessions;
	// the plan's seed only orders them.
	groups := max(count/writeEvery, 1)
	population := rand.New(rand.NewSource(populationSeed))
	sessions := make([][]op, groups*sessionsPerWrite)
	for s := range sessions {
		fam := items[names[s%len(names)]]
		for t, k := range population.Perm(len(fam))[:sessionTurns] {
			sessions[s] = append(sessions[s], session(fam[k], t+1))
		}
	}
	rng.Shuffle(len(sessions), func(i, j int) { sessions[i], sessions[j] = sessions[j], sessions[i] })

	// After every three sessions a write, uploads and deletes alternating
	// so the corpus size holds; a delete takes the oldest document.
	held := make([]int, p.Preload)
	for d := range held {
		held[d] = d
	}
	for g := 0; g < groups; g++ {
		p.Units = append(p.Units, sessions[g*sessionsPerWrite:(g+1)*sessionsPerWrite]...)
		w := op{Class: classWrite, Item: -1}
		if g%2 == 0 {
			facts := make([]int, uploadFacts)
			for i := range facts {
				facts[i] = (g*uploadFacts + i) * 31 % len(ds)
			}
			p.Docs = append(p.Docs, factDoc(ds, fmt.Sprintf("upload-%d", g), facts))
			w.Kind, w.Doc = kindUpload, len(p.Docs)-1
			held = append(held, w.Doc)
		} else {
			w.Kind, w.Doc = kindDelete, held[0]
			held = held[1:]
		}
		p.Units = append(p.Units, []op{w})
	}

	// Warm-up: the k-th question of every family in turn, on one client,
	// so the families' routing clusters are past their observation gate
	// and the routing state at the first measured operation is the same in
	// every run of a seed.
	for k := 0; len(p.Warmup) < warmup; k++ {
		for _, name := range names {
			if len(p.Warmup) == warmup {
				break
			}
			fam := items[name]
			p.Warmup = append(p.Warmup, session(fam[k%len(fam)], 0))
		}
	}
}
