package session_test

import (
	"fmt"

	"llmms/internal/session"
)

// Example shows session continuity with hierarchical summarization: a
// long conversation stays within context bounds because expired turns
// fold into an extractive summary.
func Example() {
	store := session.NewStore(session.Options{})
	sess := store.Create("demo")
	turns := []string{
		"The server has a Tesla V100 GPU for inference workloads.",
		"Noted, the V100 has thirty two gigabytes of memory.",
		"The CPU is an Intel Xeon Gold with forty virtual cores.",
		"Understood, preprocessing runs on the Xeon cores.",
		"Token budgets are allocated by the OUA and MAB strategies.",
		"Right, OUA prunes the models that trail the scoreboard.",
		"Answers are scored against the query and each other.",
		"Agreed, consensus between models weighs thirty percent.",
		"Sessions fold expired turns into an extractive summary.",
		"So long conversations stay within the context window.",
		"Uploaded documents are chunked for retrieval.",
	}
	for i, content := range turns {
		role := session.RoleUser
		if i%2 == 1 {
			role = session.RoleAssistant
		}
		if _, err := store.Append(sess.ID, session.Message{Role: role, Content: content}); err != nil {
			panic(err)
		}
	}
	snap, _ := store.Get(sess.ID)
	fmt.Println("summarized:", snap.Summary != "")
	fmt.Println("retained bounded:", len(snap.Messages) < len(turns))
	fmt.Println("turns counted:", snap.TurnCount == len(turns))
	// Output:
	// summarized: true
	// retained bounded: true
	// turns counted: true
}

// ExampleMemoryGraph shows contextual recall across sessions: an
// exchange that never mentions the query's words is still found through
// a graph edge to one that does.
func ExampleMemoryGraph() {
	g := session.NewMemoryGraph()
	g.Add(session.Exchange{SessionID: "s1",
		Question: "What GPU accelerator does the inference server have installed?",
		Answer:   "A Tesla V100."})
	g.Add(session.Exchange{SessionID: "s1",
		Question: "Does the inference server have fast storage installed?",
		Answer:   "Yes, an NVMe drive."})
	hits := g.Recall("Which GPU accelerator is installed?", 2)
	fmt.Println("recalled:", len(hits) == 2)
	// Output:
	// recalled: true
}
