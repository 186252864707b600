package embedding

import (
	"fmt"
	"testing"
)

// incrChunk approximates one generation round's new text for a single
// candidate.
const incrChunk = "chewing gum is mostly indigestible but passes through " +
	"the digestive system without harm in a few days "

// incrRounds is how many chunk arrivals one simulated response sees.
const incrRounds = 16

// BenchmarkEncodeIncremental measures the cost of keeping one candidate's
// embedding current across incrRounds chunk arrivals — the per-candidate
// share of a query's scoring cost. The pre-fast-path baseline re-encoded
// the entire accumulated response after every arrival (O(total tokens)
// per round, see BenchmarkEncodeReencodeBaseline); the accumulator
// extends feature state with only the new chunk (O(new tokens) per
// round).
func BenchmarkEncodeIncremental(b *testing.B) {
	enc := Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc, ok := NewAccumulator(enc)
		if !ok {
			b.Fatal("default encoder is not Incremental")
		}
		var v Vector
		for r := 0; r < incrRounds; r++ {
			acc.Add(incrChunk)
			v = acc.VectorInto(v)
		}
	}
}

// BenchmarkEncodeReencodeBaseline is the pre-change behavior of the same
// workload — full re-Encode of the growing response after every chunk —
// kept runnable so the asymptotic gap stays measurable in BENCH_score
// history.
func BenchmarkEncodeReencodeBaseline(b *testing.B) {
	enc := Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text := ""
		for r := 0; r < incrRounds; r++ {
			text += incrChunk
			_ = enc.Encode(text)
		}
	}
}

// benchPrompt is a RAG + session-history prompt of about 1 KB, the shape
// the MAB scorer embeds on every agent-workload query.
const benchPrompt = "Summary of earlier conversation:\n" +
	"user: What is the capital of Brazil and which currency is used there?\n" +
	"assistant: The capital of Brazil is Brasília; the currency is the real, not the peso.\n" +
	"user: And what about Poland, is the euro legal tender in Kraków?\n" +
	"assistant: No. Poland uses the złoty; the euro is not legal tender there.\n\n" +
	"Context:\n" +
	"[1] The DMSL laboratory operates a virtual server with an NVIDIA Tesla V100 GPU that hosts the Ollama daemon, " +
	"the vector database and the orchestration platform used in the evaluation.\n" +
	"[2] Retrieval augmented generation embeds the query, performs a similarity search over document fragments " +
	"and prepends the most relevant ones to the prompt before the candidate models are invoked in parallel.\n" +
	"[3] Token budgets are reallocated dynamically by pruning low performing models (λ_max = 2048, α = 0.7).\n\n" +
	"Question: Which GPU does the laboratory's server use, and what does it host?\nAnswer:"

// BenchmarkEncodePrompt is Borrow and Release of a whole prompt and then
// of a question, on one pooled accumulator: the scorer's prompt vector and
// the cache probe's, router's and retrieval's question vectors.
func BenchmarkEncodePrompt(b *testing.B) {
	enc := Default()
	const question = "Which GPU does the laboratory's server use?"
	b.SetBytes(int64(len(benchPrompt) + len(question)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, acc := Borrow(enc, benchPrompt)
		acc.Release()
		_, acc = Borrow(enc, question)
		acc.Release()
	}
}

// interSimVectors builds n unit candidate embeddings for the agreement
// benchmarks.
func interSimVectors(n int) []Vector {
	enc := Default()
	vs := make([]Vector, n)
	for i := range vs {
		vs[i] = enc.Encode(fmt.Sprintf("candidate answer number %d about the visibility of the great wall", i))
	}
	return vs
}

// BenchmarkInterSim measures the inter-model agreement term for one
// scoring pass over n candidates via the sum-vector identity: with
// S = Σ embeddings, each candidate's average similarity to the others is
// (⟨v,S⟩ − ⟨v,v⟩)/(n−1) — O(N·dim) per pass over unit vectors, versus
// the O(N²·dim) pairwise baseline below.
func BenchmarkInterSim(b *testing.B) {
	const n = 16
	vs := interSimVectors(n)
	dim := len(vs[0])
	sum := make([]float64, dim)
	out := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(sum)
		for _, v := range vs {
			for k, x := range v {
				sum[k] += float64(x)
			}
		}
		for j, v := range vs {
			d := 0.0
			for k, x := range v {
				d += float64(x) * sum[k]
			}
			out[j] = (d - Dot(v, v)) / float64(n-1)
		}
	}
}

// BenchmarkInterSimPairwiseBaseline is the pre-change agreement pass: the
// O(N²) pairwise loop with norm-recomputing Cosine, kept runnable so the
// gap stays measurable in BENCH_score history.
func BenchmarkInterSimPairwiseBaseline(b *testing.B) {
	const n = 16
	vs := interSimVectors(n)
	out := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range vs {
			sum := 0.0
			for k, w := range vs {
				if k == j {
					continue
				}
				sum += Cosine(v, w)
			}
			out[j] = sum / float64(n-1)
		}
	}
}
