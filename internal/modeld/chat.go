package modeld

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"llmms/internal/llm"
)

// ChatMessage is one turn of an /api/chat conversation, matching
// Ollama's message schema.
type ChatMessage struct {
	// Role is "system", "user", or "assistant".
	Role string `json:"role"`
	// Content is the message text.
	Content string `json:"content"`
}

// ChatRequest is the wire form of a chat call (Ollama /api/chat).
type ChatRequest struct {
	Model    string        `json:"model"`
	Messages []ChatMessage `json:"messages"`
	Stream   *bool         `json:"stream,omitempty"`
	Options  struct {
		NumPredict int `json:"num_predict,omitempty"`
	} `json:"options,omitempty"`
}

// ChatResponse is one NDJSON line of a chat stream (or the whole reply
// when stream=false).
type ChatResponse struct {
	Model      string      `json:"model"`
	CreatedAt  string      `json:"created_at"`
	Message    ChatMessage `json:"message"`
	Done       bool        `json:"done"`
	DoneReason string      `json:"done_reason,omitempty"`
	EvalCount  int         `json:"eval_count,omitempty"`
}

// chatPrompt flattens a message history into the prompt layout the
// engine parses: system and prior turns become the conversation
// preamble, the final user message becomes the question.
func chatPrompt(messages []ChatMessage) (string, error) {
	if len(messages) == 0 {
		return "", fmt.Errorf("messages are required")
	}
	last := messages[len(messages)-1]
	if last.Role != "user" {
		return "", fmt.Errorf("last message must have role \"user\", got %q", last.Role)
	}
	var b strings.Builder
	if len(messages) > 1 {
		b.WriteString("Summary of earlier conversation:\n")
		for _, m := range messages[:len(messages)-1] {
			fmt.Fprintf(&b, "%s: %s\n", m.Role, strings.TrimSpace(m.Content))
		}
		b.WriteString("\n")
	}
	b.WriteString("Question: ")
	b.WriteString(strings.TrimSpace(last.Content))
	b.WriteString("\nAnswer:")
	return b.String(), nil
}

func (s *Server) handleChat(w http.ResponseWriter, r *http.Request) {
	var req ChatRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Model == "" {
		writeErr(w, http.StatusBadRequest, "model is required")
		return
	}
	prompt, err := chatPrompt(req.Messages)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	stream := req.Stream == nil || *req.Stream

	generation, err := s.engine.Generate(r.Context(), llm.GenRequest{
		Model:     req.Model,
		Prompt:    prompt,
		MaxTokens: req.Options.NumPredict,
	})
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}

	lw := newLineWriter(w, req.Model, true, false)
	defer lw.release()
	if !stream {
		text, last := llm.Collect(generation)
		lw.reply(text, last, nil)
		return
	}
	lw.stream(generation, nil)
}

// Chat runs a non-streaming chat call through the daemon, returning the
// assistant message.
func (c *Client) Chat(ctx context.Context, model string, messages []ChatMessage, maxTokens int) (ChatResponse, error) {
	req := ChatRequest{Model: model, Messages: messages}
	noStream := false
	req.Stream = &noStream
	req.Options.NumPredict = maxTokens
	var out ChatResponse
	if err := c.do(ctx, http.MethodPost, "/api/chat", req, &out); err != nil {
		return ChatResponse{}, err
	}
	return out, nil
}
