package modeld

import (
	"context"
	"encoding/json"
	"errors"
	"io"
)

// generateLines POSTs req to /api/generate as the client does — its
// encoder, its transport, its error envelope — and reads the NDJSON
// answer with encoding/json, the reference reader, handing fn every line.
// The client generates only through GenerateChunk and OpenStream; the
// tests of the daemon's Ollama-shaped answers read them with this.
func generateLines(c *Client, req GenerateRequest, fn func(GenerateResponse)) error {
	lr, err := c.send(context.Background(), &req, nil)
	if err != nil {
		return err
	}
	defer lr.release()
	defer lr.end(nil)
	dec := json.NewDecoder(lr.body)
	for {
		var line GenerateResponse
		if err := dec.Decode(&line); errors.Is(err, io.EOF) {
			return nil
		} else if err != nil {
			return err
		}
		fn(line)
	}
}
