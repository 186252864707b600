package modeld_test

import (
	"context"
	"strings"
	"testing"

	"llmms/internal/llm"
	"llmms/internal/modeld"
	"llmms/internal/truthfulqa"
)

func TestChatNonStreaming(t *testing.T) {
	_, client := wireStack(t, truthfulqa.Seed())
	resp, err := client.Chat(context.Background(), llm.ModelMistral, []modeld.ChatMessage{
		{Role: "user", Content: "Are bats blind?"},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Message.Role != "assistant" || resp.Message.Content == "" {
		t.Fatalf("chat response = %+v", resp)
	}
	if !resp.Done || resp.DoneReason != "stop" || resp.EvalCount == 0 {
		t.Fatalf("chat completion state = %+v", resp)
	}
	lower := strings.ToLower(resp.Message.Content)
	if !strings.Contains(lower, "blind") && !strings.Contains(lower, "see") && !strings.Contains(lower, "echolocation") {
		t.Fatalf("off-topic chat answer: %q", resp.Message.Content)
	}
}

func TestChatHistoryInfluencesPrompt(t *testing.T) {
	_, client := wireStack(t, truthfulqa.Seed())
	// The history is flattened into the prompt; the last user message is
	// the question the engine resolves.
	resp, err := client.Chat(context.Background(), llm.ModelQwen2, []modeld.ChatMessage{
		{Role: "system", Content: "You answer factual questions."},
		{Role: "user", Content: "Are bats blind?"},
		{Role: "assistant", Content: "No, bats can see."},
		{Role: "user", Content: "Do goldfish really have a three-second memory?"},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	lower := strings.ToLower(resp.Message.Content)
	if !strings.Contains(lower, "goldfish") && !strings.Contains(lower, "month") && !strings.Contains(lower, "memor") {
		t.Fatalf("chat did not answer the final question: %q", resp.Message.Content)
	}
}

func TestChatStreaming(t *testing.T) {
	_, client := wireStack(t, truthfulqa.Seed())
	var pieces []string
	var final modeld.ChatResponse
	err := modeld.ChatLines(client, modeld.ChatRequest{
		Model: llm.ModelMistral,
		Messages: []modeld.ChatMessage{
			{Role: "user", Content: "Are bats blind?"},
		},
	}, func(resp modeld.ChatResponse) {
		pieces = append(pieces, resp.Message.Content)
		if resp.Done {
			final = resp
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !final.Done || final.EvalCount == 0 {
		t.Fatalf("final = %+v", final)
	}
	joined := strings.Join(pieces, "")
	// The stream must equal the non-streaming answer.
	whole, err := client.Chat(context.Background(), llm.ModelMistral, []modeld.ChatMessage{
		{Role: "user", Content: "Are bats blind?"},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if joined != whole.Message.Content {
		t.Fatalf("stream diverged:\n%q\n%q", joined, whole.Message.Content)
	}
}

func TestChatValidation(t *testing.T) {
	_, client := wireStack(t, truthfulqa.Seed().Head(2))
	ctx := context.Background()
	if _, err := client.Chat(ctx, llm.ModelMistral, nil, 0); err == nil {
		t.Fatal("expected error for empty messages")
	}
	if _, err := client.Chat(ctx, llm.ModelMistral, []modeld.ChatMessage{
		{Role: "assistant", Content: "I speak first"},
	}, 0); err == nil {
		t.Fatal("expected error when last message is not from the user")
	}
	if _, err := client.Chat(ctx, "", []modeld.ChatMessage{{Role: "user", Content: "q"}}, 0); err == nil {
		t.Fatal("expected error for missing model")
	}
	if _, err := client.Chat(ctx, "phantom:1b", []modeld.ChatMessage{{Role: "user", Content: "q"}}, 0); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestChatBudget(t *testing.T) {
	_, client := wireStack(t, truthfulqa.Seed())
	resp, err := client.Chat(context.Background(), llm.ModelLlama3, []modeld.ChatMessage{
		{Role: "user", Content: "Are bats blind?"},
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if resp.EvalCount != 5 || resp.DoneReason != "length" {
		t.Fatalf("budgeted chat = %+v", resp)
	}
}
