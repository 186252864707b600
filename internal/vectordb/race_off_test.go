//go:build !race

package vectordb_test

// probeStride is every how many questions TestRetrievalMatchesReference
// probes with.
const probeStride = 1
