package session

import (
	"math/rand"
	"reflect"
	"testing"
)

// appendExchangeRef is the reference AppendAll replaced on the query path:
// a question and its answer as two Appends, the answer only after the
// question was taken.
func appendExchangeRef(st *Store, id string, question, answer Message) {
	if _, err := st.Append(id, question); err == nil {
		_, _ = st.Append(id, answer)
	}
}

// TestAppendAllMatchesAppends drives two stores, on clocks that tick
// alike, through one seeded sequence of exchanges over a few sessions —
// one store through appendExchangeRef, the other through one AppendAll per
// exchange — with the summary threshold and retention lowered so passes
// fall between a question and its answer as well as after it. Answers are
// sometimes empty or whitespace, which Append refuses, and some exchanges
// go to an unknown session. After every exchange both stores must hold the
// same sessions: messages, summary, title, turn count and age order.
func TestAppendAllMatchesAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words := []string{"GPU", "the", "server", "runs", "Mistral", "and", "Qwen", "models.", "Tokens", "are", "budgeted", "per", "round."}
	text := func() string {
		switch rng.Intn(12) {
		case 0:
			return ""
		case 1:
			return "  "
		}
		s := words[rng.Intn(len(words))]
		for n := rng.Intn(30); n > 0; n-- {
			s += " " + words[rng.Intn(len(words))]
		}
		return s
	}
	ref, got := testStore(testClock()), testStore(testClock())
	for _, st := range []*Store{ref, got} {
		st.summarizeEvery, st.retainMessages, st.summaryBudget = 5, 2, 40
	}
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, ref.Create("").ID)
		got.Create("")
	}
	summaries := 0
	for op := 0; op < 400; op++ {
		id := ids[rng.Intn(len(ids))]
		if rng.Intn(20) == 0 {
			id = "missing"
		}
		q := Message{Role: RoleUser, Content: text()}
		a := Message{Role: RoleAssistant, Content: text(), Model: words[rng.Intn(len(words))]}
		appendExchangeRef(ref, id, q, a)
		_ = got.AppendAll(id, q, a)
		want, have := ref.List(), got.List()
		if !reflect.DeepEqual(have, want) {
			t.Fatalf("exchange %d on %s: AppendAll left\n%+v\nthe two Appends\n%+v", op, id, have, want)
		}
		if s, err := ref.Get(id); err == nil && s.Summary != "" {
			summaries++
		}
	}
	if summaries < 100 {
		t.Fatalf("%d exchanges saw a summary: the sequence no longer exercises summarization", summaries)
	}
}
