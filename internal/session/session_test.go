package session

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unicode/utf8"

	"llmms/internal/tokenizer"
)

func testClock() func() time.Time {
	t := time.Date(2025, 5, 1, 12, 0, 0, 0, time.UTC)
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

// testStore is a store on clock.
func testStore(clock func() time.Time) *Store {
	st := NewStore(Options{})
	st.clock = clock
	return st
}

func TestCreateGetDelete(t *testing.T) {
	st := testStore(testClock())
	s := st.Create("GPU questions")
	if s.ID == "" || s.Title != "GPU questions" {
		t.Fatalf("created = %+v", s)
	}
	got, err := st.Get(s.ID)
	if err != nil || got.ID != s.ID {
		t.Fatalf("Get = %+v, %v", got, err)
	}
	if err := st.Delete(s.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(s.ID); err == nil {
		t.Fatal("expected not-found after delete")
	}
	if err := st.Delete(s.ID); err == nil {
		t.Fatal("expected not-found on double delete")
	}
}

func TestAppendValidation(t *testing.T) {
	st := testStore(testClock())
	s := st.Create("")
	if _, err := st.Append(s.ID, Message{Role: RoleUser, Content: "  "}); err == nil {
		t.Fatal("expected error for empty content")
	}
	if _, err := st.Append(s.ID, Message{Role: "system", Content: "x"}); err == nil {
		t.Fatal("expected error for invalid role")
	}
	if _, err := st.Append("missing", Message{Role: RoleUser, Content: "x"}); err == nil {
		t.Fatal("expected not-found for unknown session")
	}
}

func TestTitleFromFirstUserMessage(t *testing.T) {
	st := testStore(testClock())
	s := st.Create("")
	s, err := st.Append(s.ID, Message{Role: RoleUser, Content: "What GPU does the lab server use for inference workloads exactly?"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Title == "" || len(s.Title) > 52 {
		t.Fatalf("title = %q", s.Title)
	}
}

func TestListOrder(t *testing.T) {
	st := testStore(testClock())
	a := st.Create("a")
	b := st.Create("b")
	// Touch a after b so a becomes most recent.
	if _, err := st.Append(a.ID, Message{Role: RoleUser, Content: "hello"}); err != nil {
		t.Fatal(err)
	}
	list := st.List()
	if len(list) != 2 || list[0].ID != a.ID || list[1].ID != b.ID {
		t.Fatalf("list order = %v, %v", list[0].ID, list[1].ID)
	}
}

func TestClear(t *testing.T) {
	st := testStore(testClock())
	st.Create("a")
	st.Create("b")
	st.Clear()
	if st.Len() != 0 {
		t.Fatalf("%d sessions remain", st.Len())
	}
}

func TestEvictionAtCap(t *testing.T) {
	st := testStore(testClock())
	st.maxSessions = 3
	first := st.Create("first")
	st.Create("second")
	st.Create("third")
	st.Create("fourth") // evicts "first", the least recently updated
	if st.Len() != 3 {
		t.Fatalf("len = %d, want 3", st.Len())
	}
	if _, err := st.Get(first.ID); err == nil {
		t.Fatal("oldest session should have been evicted")
	}
}

func TestSummarizationTriggersAndRetains(t *testing.T) {
	st := testStore(testClock())
	st.summarizeEvery, st.retainMessages = 6, 2
	s := st.Create("long chat")
	topics := []string{
		"The server has a Tesla V100 GPU with thirty two gigabytes of VRAM.",
		"Understood, the V100 accelerates all inference workloads.",
		"It also has an Intel Xeon Gold processor with forty cores.",
		"Noted, a forty core Xeon Gold handles preprocessing.",
		"The platform orchestrates LLaMA, Mistral and Qwen models together.",
		"Correct, three models run under the Ollama daemon.",
		"Token budgets are allocated with OUA and MAB strategies.",
	}
	var last Session
	var err error
	for i, content := range topics {
		role := RoleUser
		if i%2 == 1 {
			role = RoleAssistant
		}
		last, err = st.Append(s.ID, Message{Role: role, Content: content})
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.Summary == "" {
		t.Fatal("summary not produced after threshold")
	}
	if len(last.Messages) > 6 {
		t.Fatalf("retained %d messages, want <= 6", len(last.Messages))
	}
	if last.TurnCount != len(topics) {
		t.Fatalf("turn count = %d, want %d", last.TurnCount, len(topics))
	}
	// The newest message must be retained verbatim.
	newest := last.Messages[len(last.Messages)-1]
	if newest.Content != topics[len(topics)-1] {
		t.Fatalf("newest message lost: %q", newest.Content)
	}
}

func TestHierarchicalResummarization(t *testing.T) {
	st := testStore(testClock())
	st.summarizeEvery, st.retainMessages, st.summaryBudget = 4, 2, 80
	s := st.Create("marathon")
	tok := tokenizer.Default()
	var last Session
	var err error
	for i := 0; i < 40; i++ {
		last, err = st.Append(s.ID, Message{
			Role:    RoleUser,
			Content: fmt.Sprintf("Turn %d discusses topic %d in the ongoing conversation about system design.", i, i%7),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.Summary == "" {
		t.Fatal("no summary after 40 turns")
	}
	if n := tok.Count(last.Summary); n > 80 {
		t.Fatalf("summary has %d tokens, budget 80", n)
	}
	if len(last.Messages) > 4 {
		t.Fatalf("retained %d messages, want <= 4", len(last.Messages))
	}
}

func TestContextRespectsBudget(t *testing.T) {
	st := testStore(testClock())
	st.summarizeEvery = 20
	s := st.Create("ctx")
	for i := 0; i < 8; i++ {
		if _, err := st.Append(s.ID, Message{Role: RoleUser,
			Content: fmt.Sprintf("Message number %d with a reasonable amount of content in it.", i)}); err != nil {
			t.Fatal(err)
		}
	}
	tok := tokenizer.Default()
	summary, recent, err := st.Context(s.ID, 60)
	if err != nil {
		t.Fatal(err)
	}
	total := tok.Count(summary)
	for _, m := range recent {
		total += tok.Count(m.Content)
	}
	if total > 60 {
		t.Fatalf("context uses %d tokens, budget 60", total)
	}
	if len(recent) == 0 {
		t.Fatal("context dropped every message")
	}
	// Newest messages are preferred.
	if !strings.Contains(recent[len(recent)-1].Content, "number 7") {
		t.Fatalf("newest message missing: %+v", recent)
	}
	// Unbounded context returns everything.
	_, all, err := st.Context(s.ID, 0)
	if err != nil || len(all) != 8 {
		t.Fatalf("unbounded context: %d messages, %v", len(all), err)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	st := testStore(testClock())
	s := st.Create("iso")
	s1, err := st.Append(s.ID, Message{Role: RoleUser, Content: "original"})
	if err != nil {
		t.Fatal(err)
	}
	s1.Messages[0].Content = "mutated"
	s2, err := st.Get(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Messages[0].Content != "original" {
		t.Fatal("snapshot mutation leaked into the store")
	}
}

func TestConcurrentAppends(t *testing.T) {
	st := testStore(testClock())
	st.summarizeEvery = 8
	s := st.Create("conc")
	var wg sync.WaitGroup
	const n = 50
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = st.Append(s.ID, Message{Role: RoleUser, Content: fmt.Sprintf("concurrent message %d", i)})
		}(i)
	}
	wg.Wait()
	got, err := st.Get(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.TurnCount != n {
		t.Fatalf("turn count = %d, want %d", got.TurnCount, n)
	}
}

func TestSummarizeEmptyAndShort(t *testing.T) {
	tok := tokenizer.Default()
	if got := Summarize("", 100, tok); got != "" {
		t.Fatalf("empty text summarized to %q", got)
	}
	short := "A single short sentence."
	if got := Summarize(short, 100, tok); got != short {
		t.Fatalf("short text altered: %q", got)
	}
}

func TestSummarizeKeepsCentralContent(t *testing.T) {
	tok := tokenizer.Default()
	// Five sentences about GPUs and one outlier; the summary under a tight
	// budget should keep GPU content over the outlier.
	text := strings.Join([]string{
		"The server uses a Tesla V100 GPU for inference.",
		"GPU memory is thirty two gigabytes on the V100.",
		"The GPU runs all three models concurrently.",
		"GPU utilization is monitored with nvidia smi.",
		"The GPU driver version supports CUDA twelve.",
		"Pelicans migrate across the Mediterranean in autumn.",
	}, "\n")
	sum := Summarize(text, 60, tok)
	if sum == "" {
		t.Fatal("empty summary")
	}
	if !strings.Contains(strings.ToLower(sum), "gpu") {
		t.Fatalf("summary lost the central topic: %q", sum)
	}
	if n := tok.Count(sum); n > 60 {
		t.Fatalf("summary has %d tokens, budget 60", n)
	}
}

func TestSummarizeDeduplicates(t *testing.T) {
	tok := tokenizer.Default()
	text := strings.Repeat("The GPU is a Tesla V100 accelerator.\n", 12) +
		"The processor is an Intel Xeon Gold with forty cores.\n" +
		strings.Repeat("The GPU is a Tesla V100 accelerator.\n", 12)
	sum := Summarize(text, 60, tok)
	if c := strings.Count(sum, "Tesla V100"); c > 1 {
		t.Fatalf("summary repeats duplicate sentence %d times: %q", c, sum)
	}
	if !strings.Contains(sum, "Xeon") {
		t.Fatalf("summary lost the distinct sentence: %q", sum)
	}
}

func TestSummarizeBudgetProperty(t *testing.T) {
	tok := tokenizer.Default()
	f := func(seed uint8, nSentences uint8) bool {
		n := 1 + int(nSentences)%30
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "Sentence %d about subject %d and item %d.\n", i, (i+int(seed))%5, i%3)
		}
		budget := 20 + int(seed)%100
		sum := Summarize(b.String(), budget, tok)
		return tok.Count(sum) <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSummarize(b *testing.B) {
	tok := tokenizer.Default()
	var sb strings.Builder
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&sb, "Turn %d of the conversation covers orchestration topic %d in depth.\n", i, i%9)
	}
	text := sb.String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Summarize(text, 120, tok)
	}
}

func BenchmarkAppend(b *testing.B) {
	st := NewStore(Options{})
	s := st.Create("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = st.Append(s.ID, Message{Role: RoleUser, Content: fmt.Sprintf("benchmark message %d content", i)})
	}
}

// TestSummarizeTruncatesOnRuneBoundaries: a summary that must cut its
// one over-budget sentence never ends mid-character, is never empty, is
// a prefix of the sentence, and keeps to the budget whenever a whole
// character fits in it.
func TestSummarizeTruncatesOnRuneBoundaries(t *testing.T) {
	tok := tokenizer.Default()
	for _, text := range []string{
		strings.Repeat("日本語", 200),
		strings.Repeat("🦇🦊", 100),
		strings.Repeat("naïve café déjà vu ", 30),
		strings.Repeat("北京 and Brasília ", 40),
	} {
		for maxTokens := 1; maxTokens <= 40; maxTokens++ {
			got := Summarize(text, maxTokens, tok)
			if !utf8.ValidString(got) {
				t.Fatalf("Summarize(%.12q…, %d) = %q, invalid UTF-8", text, maxTokens, got)
			}
			if got == "" || !strings.HasPrefix(text, got) {
				t.Fatalf("Summarize(%.12q…, %d) = %q, want a non-empty prefix of the text", text, maxTokens, got)
			}
			if n := tok.Count(got); n > maxTokens && utf8.RuneCountInString(got) > 1 {
				t.Fatalf("Summarize(%.12q…, %d) = %q, %d tokens", text, maxTokens, got, n)
			}
		}
	}
}
