// Chat session: a multi-turn conversation with session continuity and
// hierarchical summarization — the paper's context management layer
// (§6.5) driven programmatically.
//
// Each turn builds its prompt from the session summary plus retained
// recent messages, runs the orchestrator, and appends the exchange back
// into the store. After enough turns the earliest messages are folded
// into an extractive summary, keeping the prompt bounded while the
// models keep "remembering" earlier topics.
//
//	go run ./examples/chatsession
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"llmms/internal/core"
	"llmms/internal/llm"
	"llmms/internal/rag"
	"llmms/internal/session"
)

func main() {
	engine := llm.NewEngine(llm.Options{})
	cfg := core.DefaultConfig(llm.ModelLlama3, llm.ModelMistral, llm.ModelQwen2)
	cfg.MaxTokens = 256
	orch, err := core.New(engine, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The store folds history into its summary once more than ten
	// messages are retained, keeping the last four: ten turns show the
	// summary form at turn 6 and fold into itself at turn 9.
	store := session.NewStore(session.Options{})
	sess := store.Create("benchmark chat")

	turns := []string{
		"Are bats blind?",
		"Do goldfish really have a three-second memory?",
		"Does lightning ever strike the same place twice?",
		"What happens if you swallow chewing gum?",
		"Is the Great Wall of China visible from the Moon?",
		"Does cracking your knuckles cause arthritis?",
		"Does sugar make children hyperactive?",
		"Do we only use ten percent of our brains?",
		"Is the tongue divided into taste zones?",
		"Does shaving make hair grow back thicker?",
	}

	for i, q := range turns {
		// Assemble the contextual prompt: summary of expired turns plus
		// the retained recent messages, then the new question.
		summary, recent, err := store.Context(sess.ID, 512)
		if err != nil {
			log.Fatal(err)
		}
		var history []string
		for _, m := range recent {
			history = append(history, fmt.Sprintf("%s: %s", m.Role, m.Content))
		}
		prompt := rag.BuildPrompt(rag.PromptParts{
			Summary:  strings.TrimSpace(summary + "\n" + strings.Join(history, "\n")),
			Question: q,
		})

		res, err := orch.Run(context.Background(), core.StrategyMAB, prompt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("turn %d  Q: %s\n", i+1, q)
		fmt.Printf("        A (%s, %d tokens): %s\n", res.Model, res.TokensUsed, res.Answer)

		if _, err := store.Append(sess.ID, session.Message{Role: session.RoleUser, Content: q}); err != nil {
			log.Fatal(err)
		}
		snap, err := store.Append(sess.ID, session.Message{
			Role: session.RoleAssistant, Content: res.Answer, Model: res.Model,
		})
		if err != nil {
			log.Fatal(err)
		}
		if snap.Summary != "" {
			fmt.Printf("        [session summary: %s]\n", snap.Summary)
		}
		fmt.Println()
	}

	final, err := store.Get(sess.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session %q: %d total turns, %d retained verbatim, summary %d chars\n",
		final.Title, final.TurnCount, len(final.Messages), len(final.Summary))
}
