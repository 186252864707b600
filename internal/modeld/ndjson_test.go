package modeld

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
)

// The client generates only through GenerateChunk and OpenStream. The
// tests of the daemon's Ollama-shaped answers read them with these
// helpers instead: each POSTs a request and reads the NDJSON answer with
// encoding/json, the reference reader, handing fn every line.

// generateLines POSTs req to /api/generate as the client does — its
// encoder, its transport, its error envelope.
func generateLines(c *Client, req GenerateRequest, fn func(GenerateResponse)) error {
	resp, body, err := c.postGenerate(context.Background(), &req, nil)
	if err != nil {
		return err
	}
	defer body.release()
	defer resp.Body.Close()
	return readLines(resp.Body, fn)
}

// chatLines POSTs req to /api/chat as a streaming call.
func chatLines(c *Client, req ChatRequest, fn func(ChatResponse)) error {
	on := true
	req.Stream = &on
	data, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+"/api/chat", "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return readLines(resp.Body, fn)
}

// ChatLines is chatLines for the package's external tests.
var ChatLines = chatLines

func readLines[T any](r io.Reader, fn func(T)) error {
	dec := json.NewDecoder(r)
	for {
		var line T
		if err := dec.Decode(&line); errors.Is(err, io.EOF) {
			return nil
		} else if err != nil {
			return err
		}
		fn(line)
	}
}
