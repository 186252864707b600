package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Per-layer numbers read from outside the program: counts from what the
// load generator saw (SSE event types, X-Cache and X-Route headers), the
// SUT's own /metrics, and the harness's spans.

// counts tallies a phase's outcomes.
type counts struct {
	Attempted, Failed int // operations
	Queries           int // query operations attempted
	Completed         int // queries that got their result
	Orchestrated      int // completed queries that ran the models

	Exact, Semantic, Coalesced int // completed queries by X-Cache
	Routed                     int // orchestrated queries with a narrowed fan-out
	WidthSum                   int // sum of fan-out widths over orchestrated queries

	Rounds, Chunks, Prunes, EarlyExits int   // over orchestrated queries
	StallNs                            int64 // sum of round_stall events
	Frames, Bytes                      int   // SSE frames and bytes over completed queries
	TokensSpent                        int   // tokens_used summed over orchestrated queries

	Uploads  int
	UploadMs []float64
}

// tally counts outcomes; an operation with any violation is failed.
func tally(outs []outcome) counts {
	var c counts
	fullWidth := 3
	for i := range outs {
		o := &outs[i]
		c.Attempted++
		if len(o.Violations) > 0 {
			c.Failed++
		}
		switch o.Op.Kind {
		case kindUpload:
			if o.Err == "" {
				c.Uploads++
				c.UploadMs = append(c.UploadMs, ms(o.Latency))
			}
			continue
		case kindDelete:
			continue
		}
		c.Queries++
		if !o.completed() {
			continue
		}
		c.Completed++
		c.Frames += o.Frames
		c.Bytes += o.Bytes
		switch o.Cache {
		case "HIT":
			c.Exact++
		case "SEMANTIC":
			c.Semantic++
		case "COALESCED":
			c.Coalesced++
		}
		if !o.orchestrated() {
			continue
		}
		c.Orchestrated++
		c.TokensSpent += o.Result.Result.TokensUsed
		c.Rounds += o.Result.Result.Rounds
		c.Chunks += o.Events["chunk"]
		c.Prunes += o.Events["prune"]
		c.StallNs += o.StallNs
		if o.Result.Result.EarlyExit {
			c.EarlyExits++
		}
		width := fullWidth
		if outcome, w, ok := strings.Cut(o.Route, ":"); ok {
			if n, err := strconv.Atoi(w); err == nil {
				width = n
			}
			if outcome == "topk" || outcome == "probe" {
				c.Routed++
			}
		}
		c.WidthSum += width
	}
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scrape reads a Prometheus text page into series → value.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// familySum adds up every series of a metric family (any labels).
func familySum(m map[string]float64, family string) float64 {
	var sum float64
	for series, v := range m {
		if series == family || strings.HasPrefix(series, family+"{") {
			sum += v
		}
	}
	return sum
}

// layerRow is one row of the layer table.
type layerRow struct {
	Layer         string
	CallsPerQuery float64
	CallP50Ms     float64
	SelfMsPerQ    float64 // mean over queries
	Share         float64 // of server.handle
}

// spanStats is what a traced run's spans say about the layers.
type spanStats struct {
	Queries int
	// Per query, milliseconds.
	HandleMs, ServerSelfMs, OverheadMs []float64
	// Per span, milliseconds.
	FleetCallMs, ClientCallMs, DaemonHandleMs []float64
	// Sums of per-query self time, nanoseconds. DaemonBlockingNs is the
	// daemon's handle time that overlaps a client call, which is the part
	// of it on the query's blocking path.
	ServerSelfNs, FleetSelfNs, ClientSelfNs, DaemonBlockingNs, HandleNs int64
	StreamBytes                                                         int64
	ReplicaCalls                                                        map[string]int
}

// intersectLen is the total overlap of two sorted disjoint interval lists.
func intersectLen(a, b []interval) int64 {
	var n int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo := max(a[i].Start, b[j].Start)
		hi := min(a[i].End, b[j].End)
		if hi > lo {
			n += hi - lo
		}
		if a[i].End < b[j].End {
			i++
		} else {
			j++
		}
	}
	return n
}

// analyseSpans attributes each measured query's server.handle time to
// layers. The layers nest (server ⊃ fleet ⊃ client ⊃ daemon), so a layer's
// self time in a query is the time one of its spans is open and none of
// the next layer's is: its spans minus the union of their children.
// Parallel streams overlap, which is why this works on unions — the sum
// over layers is then the handle time, not three times it.
func analyseSpans(spans []span, latencyMs map[string]float64) spanStats {
	st := spanStats{ReplicaCalls: make(map[string]int)}
	byQuery := make(map[string][]span)
	for _, s := range spans {
		if strings.HasPrefix(s.Query, "m") {
			byQuery[s.Query] = append(byQuery[s.Query], s)
		}
	}
	ids := make([]string, 0, len(byQuery))
	for q := range byQuery {
		ids = append(ids, q)
	}
	sort.Strings(ids)
	for _, q := range ids {
		var handle *span
		var fleetIv, clientIv, daemonIv []interval
		for i, s := range byQuery[q] {
			iv := interval{s.Start, s.End}
			switch s.Name {
			case spanServer:
				handle = &byQuery[q][i]
			case spanFleet:
				fleetIv = append(fleetIv, iv)
				st.FleetCallMs = append(st.FleetCallMs, float64(s.End-s.Start)/1e6)
			case spanClient:
				clientIv = append(clientIv, iv)
				st.ClientCallMs = append(st.ClientCallMs, float64(s.End-s.Start)/1e6)
				st.ReplicaCalls[s.Replica]++
			case spanDaemon:
				daemonIv = append(daemonIv, iv)
				st.DaemonHandleMs = append(st.DaemonHandleMs, float64(s.End-s.Start)/1e6)
				st.StreamBytes += s.Bytes
			}
		}
		if handle == nil {
			continue
		}
		h := interval{handle.Start, handle.End}
		uf := unionIntervals(fleetIv, h)
		uc := unionIntervals(clientIv, h)
		ud := unionIntervals(daemonIv, h)
		serverSelf := selfTime(h, fleetIv)
		fleetSelf := totalLen(uf) - intersectLen(uf, uc)
		blocking := intersectLen(uc, ud)
		clientSelf := totalLen(uc) - blocking
		st.Queries++
		st.HandleNs += h.End - h.Start
		st.ServerSelfNs += serverSelf
		st.FleetSelfNs += fleetSelf
		st.ClientSelfNs += clientSelf
		st.DaemonBlockingNs += blocking
		st.HandleMs = append(st.HandleMs, float64(h.End-h.Start)/1e6)
		st.ServerSelfMs = append(st.ServerSelfMs, float64(serverSelf)/1e6)
		if lat, ok := latencyMs[q]; ok {
			st.OverheadMs = append(st.OverheadMs, lat-float64(h.End-h.Start)/1e6)
		}
	}
	return st
}

// rows is the layer table: per layer, calls per query, the median call,
// mean self time per query and its share of server.handle.
func (st spanStats) rows() []layerRow {
	q := float64(st.Queries)
	row := func(name string, calls int, callMs []float64, selfNs int64) layerRow {
		return layerRow{
			Layer: name, CallsPerQuery: ratio(float64(calls), q), CallP50Ms: median(callMs),
			SelfMsPerQ: ratio(float64(selfNs)/1e6, q), Share: ratio(float64(selfNs), float64(st.HandleNs)),
		}
	}
	return []layerRow{
		row(spanServer, st.Queries, st.HandleMs, st.ServerSelfNs),
		row(spanFleet, len(st.FleetCallMs), st.FleetCallMs, st.FleetSelfNs),
		row(spanClient, len(st.ClientCallMs), st.ClientCallMs, st.ClientSelfNs),
		row(spanDaemon+" (blocking)", len(st.DaemonHandleMs), st.DaemonHandleMs, st.DaemonBlockingNs),
	}
}

// imbalance is the most-called replica's calls over the least-called's.
func (st spanStats) imbalance() float64 {
	lo, hi := 0, 0
	for _, n := range st.ReplicaCalls {
		if lo == 0 || n < lo {
			lo = n
		}
		hi = max(hi, n)
	}
	return ratio(float64(hi), float64(lo))
}

func printLayerTable(w io.Writer, workload string, st spanStats) {
	fmt.Fprintf(w, "layer table, %s (%d traced queries; self = span time not covered by the next layer's spans)\n", workload, st.Queries)
	fmt.Fprintf(w, "  %-28s %12s %12s %14s %8s\n", "layer", "calls/query", "call p50 ms", "self ms/query", "share")
	var sum float64
	for _, r := range st.rows() {
		fmt.Fprintf(w, "  %-28s %12.2f %12.4f %14.4f %7.1f%%\n", r.Layer, r.CallsPerQuery, r.CallP50Ms, r.SelfMsPerQ, 100*r.Share)
		sum += r.SelfMsPerQ
	}
	fmt.Fprintf(w, "  %-28s %12s %12s %14.4f  (server.handle mean %.4f ms)\n", "sum of self", "", "", sum, ratio(float64(st.HandleNs)/1e6, float64(st.Queries)))
}
