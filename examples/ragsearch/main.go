// RAG search: ingest documents into the vector database and answer
// document-grounded questions through the orchestrator — the paper's
// retrieval-augmented generation pipeline (§6.2) end to end.
//
// The flow mirrors a user uploading files in the web UI: parse → chunk →
// embed → index in the vector database, then at query time retrieve the
// top-k chunks by cosine similarity, build the augmented prompt, and let
// the orchestrated models answer extractively from the retrieved context.
//
//	go run ./examples/ragsearch
package main

import (
	"context"
	"fmt"
	"log"

	"llmms/internal/core"
	"llmms/internal/llm"
	"llmms/internal/rag"
	"llmms/internal/vectordb"
)

// Two small "uploaded documents" about a fictional deployment.
const serverSpecs = `The production cluster runs on a virtual server at the data lab.
The server has an Intel Xeon Gold processor with forty virtual cores at 2.1 GHz.
It is provisioned with ninety eight gigabytes of system memory.
A dedicated NVIDIA Tesla V100 GPU with thirty two gigabytes of VRAM handles inference.
Storage includes a one terabyte NVMe solid state drive for the model files.
The operating system is Ubuntu 24.04 LTS with CUDA 12.6 installed.`

const platformNotes = `The platform serves three language models through the Ollama daemon.
Queries are orchestrated with the OUA and MAB token allocation strategies.
Uploaded documents are chunked and embedded into ChromaDB for retrieval.
Session histories are summarized hierarchically after every five messages.
All conversation state is kept in memory and discarded after the session.`

func main() {
	// 1. Stand up the vector database and ingest the documents.
	db := vectordb.New()
	col, err := db.CreateCollection("uploads", vectordb.CollectionConfig{})
	if err != nil {
		log.Fatal(err)
	}
	ingestor := rag.NewIngestor(col, rag.ChunkOptions{})
	for _, doc := range []struct{ id, name, text string }{
		{"specs", "server-specs.txt", serverSpecs},
		{"notes", "platform-notes.txt", platformNotes},
	} {
		n, err := ingestor.IngestText(doc.id, doc.name, doc.text)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ingested %-18s → %d chunks\n", doc.name, n)
	}
	fmt.Println()

	// 2. Build the orchestrator.
	engine := llm.NewEngine(llm.Options{})
	cfg := core.DefaultConfig(llm.ModelLlama3, llm.ModelMistral, llm.ModelQwen2)
	cfg.MaxTokens = 256
	orch, err := core.New(engine, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Answer grounded questions: retrieve top-k chunks, build the
	// augmented prompt, orchestrate.
	questions := []string{
		"How much VRAM does the inference GPU have?",
		"How are long session histories kept within context limits?",
		"Which operating system and CUDA version does the server run?",
	}
	for _, q := range questions {
		hits, err := rag.Retrieve(col, q, 2, "")
		if err != nil {
			log.Fatal(err)
		}
		var chunks []string
		fmt.Printf("Q: %s\n", q)
		for _, h := range hits {
			chunks = append(chunks, h.Text)
			fmt.Printf("   retrieved [%.3f] %s (%v)\n", h.Similarity, h.ID, h.Metadata["source"])
		}
		prompt := rag.BuildPrompt(rag.PromptParts{Chunks: chunks, Question: q})
		res, err := orch.Run(context.Background(), core.StrategyOUA, prompt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("A (%s): %s\n\n", res.Model, res.Answer)
	}
}
