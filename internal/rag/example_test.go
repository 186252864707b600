package rag_test

import (
	"fmt"

	"llmms/internal/rag"
	"llmms/internal/vectordb"
)

// Example shows the full RAG pipeline: ingest a document into the
// vector database, retrieve the chunks relevant to a question, and
// build the augmented prompt.
func Example() {
	db := vectordb.New()
	col, err := db.CreateCollection("docs", vectordb.CollectionConfig{})
	if err != nil {
		panic(err)
	}
	ingestor := rag.NewIngestor(col, rag.ChunkOptions{})
	n, err := ingestor.IngestText("specs", "specs.txt",
		"The inference server uses a Tesla V100 GPU. "+
			"It has thirty two gigabytes of VRAM. "+
			"The CPU is an Intel Xeon Gold with forty cores.")
	if err != nil {
		panic(err)
	}
	fmt.Println("chunks:", n > 0)

	hits, err := rag.Retrieve(col, "how much VRAM does the GPU have", 1, "")
	if err != nil {
		panic(err)
	}
	prompt := rag.BuildPrompt(rag.PromptParts{
		Chunks:   []string{hits[0].Text},
		Question: "How much VRAM does the GPU have?",
	})
	fmt.Println("grounded:", len(hits) == 1)
	fmt.Println("prompt has context:", len(prompt) > 0)
	// Output:
	// chunks: true
	// grounded: true
	// prompt has context: true
}
