#!/bin/sh
# Pre-merge gate: formatting, vet, then the full test suite under the
# race detector. The concurrent fan-out in internal/core makes -race a
# required pass, not an optional extra.
set -eu
cd "$(dirname "$0")/.."

# listed NAMES PACKAGE...: go test passes, having run nothing, when -run or
# -fuzz matches no test, so a renamed test would leave its loop below
# green. Fail unless go test -list finds every one of NAMES ('|'-separated)
# in the packages.
listed() {
	names=$1
	shift
	missing=$(go test -list "^($names)\$" "$@" | awk -v want="$names" '
		{ have[$1] = 1 }
		END { n = split(want, w, "|"); for (i = 1; i <= n; i++) if (!(w[i] in have)) print w[i] }')
	if [ -n "$missing" ]; then
		echo "go test -list finds no such test in $*:" >&2
		echo "$missing" >&2
		exit 1
	fi
}

# stress LABEL NAMES PACKAGE...: the tests NAMES under the race detector,
# twenty times over.
stress() {
	label=$1 names=$2
	shift 2
	echo "== $label: go test -race -count=20 -run '$names' $*"
	listed "$names" "$@"
	go test -race -count=20 -run "$names" "$@"
}

# fuzz NAME PACKAGE: ten seconds of the fuzz target NAME.
fuzz() {
	echo "== fuzz smoke: $1 10s"
	listed "$1" "$2"
	go test -run '^$' -fuzz "^$1\$" -fuzztime 10s "$2" >/dev/null
}

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

# -shuffle=on randomizes test order, flushing out tests that only pass
# because an earlier test left shared state behind.
echo "== go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

# The allocation guards skip themselves under -race, where sync.Pool drops
# puts and counts are not exact, so the suite above never runs them: run
# them once more without it, and require that every one of them ran.
allocs='TestSpanAllocatesNothing|TestGenerationSessionAllocs|TestSessionWaitCostsNothing|TestBorrowReleaseAllocatesNothing|TestMemoryGraphAddAtCapacityAllocatesNothing|TestCountAllocatesNothing|TestTrainAllocs|TestWarmScorerPassAllocatesNothing|TestWarmBufferedRoundAllocatesNothing|TestRecycledRunOpensFresh|TestTopKAllocatesNothing|TestRecordingAllocatesNothing|TestStoredTraceFootprint|TestStoredTraceTextFits|TestPolicyAllocatesNothing|TestQueryWork|TestReadQueryAllocates|TestClientCountersAllocateNothing'
echo "== allocation guards: go test -count=1 -run '^($allocs)\$' ./internal/..."
# A failing guard stops the script here, so print what it read first.
out=$(go test -count=1 -v -run "^($allocs)\$" ./internal/...) || {
	printf '%s\n' "$out" | grep -vE '^(=== RUN|--- PASS|ok )' >&2
	echo "allocation guards: go test failed" >&2
	exit 1
}
passed=$(printf '%s\n' "$out" | grep -c '^--- PASS' || true)
if [ "$passed" -ne 18 ]; then
	printf '%s\n' "$out" >&2
	echo "allocation guards: $passed of 18 passed" >&2
	exit 1
fi

# Every way an /api/query request can end, over and over: the exits that
# hold a slot, a queue place or a flight are races by construction — and a
# follower may still be reading its leader's frames after the leader's exit;
# and a waiter canceled at the head of the admission queue, whose
# successors must be granted the capacity it leaves free.
exits='TestQueryEveryExit|TestQueryShedLeavesNoSession|TestFlightFollowerOutlivesLeaderWriter|TestGateCancelGrantsWaitersBehind'
stress 'exit paths' "$exits" ./internal/server ./internal/qcache

# The routing index writes behind the queries: every entry point against
# flushes and Close, a restart mid-probe-schedule, and a rating through the
# server (the ledger) that must reach the collection only with the flush,
# over and over; then a short fuzz of the cluster documents Load restores
# from.
stress 'route persistence' 'TestPredictorConcurrentFlushAndClose|TestPredictorRestartKeepsProbeSchedule|TestRouteAndFeedbackPersistAcrossRestart' ./internal/router ./internal/server
fuzz FuzzPredictorLoad ./internal/router

# The fan-out round against its goroutine-per-job reference: pulls the
# buffer covers run inline, the rest on goroutines, over and over; the
# warm-round allocation check skips itself under -race.
stress 'fan-out rounds' 'TestFanOutMatchesReference|TestWarmBufferedRoundAllocatesNothing' ./internal/core

# The reopen ladder: a stream that breaks mid-answer, an open that fails
# once and one that always fails, a drain that stalls past its deadline,
# and a cancel during the backoff sleep — and, on a healthy backend, no
# reopen at all: one stream per candidate — over and over.
reopen='TestMidStreamBreakFallsBackLosslessly|TestStreamOpenFailureDegradesQuietly|TestPersistentOpenFailureFailsModel|TestStalledStreamStillTimesOut|TestRetryBackoffAbortsOnCancel|TestOneStreamPerCandidate'
stress 'reopen ladder' "$reopen" ./internal/core

# Pooled query runs: the decision log's cases twice in one process, the
# second time each on a run another shape of query just gave back (one to
# five models, every strategy, a failed model, a canceled query); and the
# sessions a run leaves open swept on cancel, and a stalled drain timed out
# by its session's wait, over and over.
stress 'recycled runs' 'TestRecycledRunsReproduceGolden|TestStalledStreamStillTimesOut|TestStreamsClosedOnCancel' ./internal/core

# The strategies' decisions and their event order, pinned by the decision
# log and the streaming-determinism check, with every strategy on the one
# query run (run.go), and the mechanism that applies them against a naive
# one over the loopback fleet, over and over.
pins='TestDecisionLog|TestStreamingDeterminism|TestMechanismDifferential'
stress 'strategy pins' "$pins" ./internal/core

# One reading of the paper's rules: the margins, γ₀, the even split and the
# UCB1 index are policy.go's alone (core.go declares and defaults them).
echo "== decisions: the margins, gamma0, the even split and UCB1 only in internal/core/policy.go"
stray=$(grep -nE 'PruneMargin|LeadMargin|Gamma0|MaxTokens ?/ ?len\(|math\.Log\(' internal/core/*.go |
	grep -vE '^[^:]*(_test|/policy)\.go:|^[^:]*:[0-9]+:[[:space:]]*//' |
	grep -vE '^internal/core/core\.go:[0-9]+:[[:space:]]*((PruneMargin|LeadMargin|Gamma0)[[:space:]:]|.*[^.[:alnum:]]c\.(PruneMargin|LeadMargin|Gamma0)[^[:alnum:]])' || true)
if [ -n "$stray" ]; then
	echo "a decision outside internal/core/policy.go:" >&2
	echo "$stray" >&2
	exit 1
fi

# A drain's deadline is its session's wait (llm.ChunkRequest.Wait), which
# a buffered drain never arms: no per-drain context in the orchestrator.
echo "== drains: no context.WithTimeout or WithDeadline in internal/core's non-test files"
stray=$(grep -nE 'context\.With(Timeout|Deadline)' internal/core/*.go | grep -vE '^[^:]*_test\.go:' || true)
if [ -n "$stray" ]; then
	echo "a per-drain context in internal/core:" >&2
	echo "$stray" >&2
	exit 1
fi

# Borrowed embeddings: pooled accumulators and scorers shared by concurrent
# queries, and flight histories recycled while a follower still replays;
# then a short fuzz of the borrow rule against Encode.
stress 'borrowed vectors' 'TestConcurrentRunsShareOneEncoder|TestFlightFollowerSurvivesHistoryRecycling' ./internal/core ./internal/qcache
fuzz FuzzBorrow ./internal/embedding

# The word memo and the flat feature table: goroutines race to insert the
# same words into a tokenizer whose memo starts empty, and pooled
# accumulators are reused from text to text (a question after a prompt)
# by concurrent encoders, over and over.
stress 'memoized words' 'TestConcurrentEncodeAndCount|TestReleasedAccumulatorsReuseExactly' ./internal/tokenizer ./internal/embedding

# The modeld client's two routes, the hop's own transport and net/http's,
# its reference: the same bytes on the same connections and the same
# results over a script of daemon behaviours, one shared default, a wave of
# concurrent generation requests reused without a dial, no goroutine on an
# idle connection or an open session, a session closed after its daemon
# finished keeping its connection, one resend on a stale one, and a
# redialled connection that reads nothing of the one before, over and over;
# then a short fuzz of the replies its exchange reads.
hop='TestHopTransportMatchesReference|TestDefaultClientSharedOnce|TestDefaultClientReusesConnections|TestIdleConnectionHoldsNoGoroutine|TestSessionHoldsNoGoroutine|TestEarlyClosedSessionKeepsItsConnection|TestStaleIdleConnectionIsRedialled|TestRedialledConnectionReadsNothingOfTheOld'
stress 'hop transport' "$hop" ./internal/modeld
fuzz FuzzHopResponse ./internal/modeld

# The in-band stop: a daemon without stop_line hung up on, a connection
# that cannot go full duplex refused and the request resent plain, a stop
# the daemon ignores, a stop that crosses the done line, and a stopped
# session held to the hang-up it replaces, each ending with the engine
# idle and no goroutine left, over and over; then the paced row of the
# work table, whose pruned sessions stop their daemons and redial at most
# once in ten queries.
stop='TestStockDaemonIsHungUpOn|TestDuplexRefusedFallsBackPlain|TestIgnoredStopEndsWithinWait|TestStopCrossingDoneLinePoolsOnce|TestStoppedSessionMatchesHangUp'
stress 'in-band stop' "$stop" ./internal/modeld
echo "== paced dials: go test -race -count=20 -run '^TestQueryWork\$/^MISS_oua_paced\$' ./internal/server"
listed TestQueryWork ./internal/server
go test -race -count=20 -run '^TestQueryWork$/^MISS_oua_paced$' ./internal/server

# Closed sessions: sessions closed from another goroutine while their Next
# is blocked reading the daemon, and closed before any line was read, and
# the closed session's line reader goes back to the pool for the next one.
stress 'closed sessions' 'TestSessionCloseRacesBlockedNext|TestClientClosedStreamCountsCanceled' ./internal/modeld

# The semantic tier's own index: probes scan a bucket outside the entry
# lock while Puts evict, refresh and Flush rewrite it, over and over.
stress 'semantic probes' 'TestSemanticProbeRacesEviction' ./internal/qcache

# The admission policy: the miss share on the benchmark's repeat_mix shape
# and its bounds against a plain LRU, admission and refusal by frequency,
# warm start by last use, the tiers in lockstep through every eviction,
# and the policy against its plain model — each cache draws its sketch's
# hash seed anew, so every run is another seed.
policy='TestScanResistance|TestSketchCountsAndHalves|TestEvictionAdmitsByFrequency|TestWarmStartKeepsMostRecentlyUsed|TestWarmStartOverCapacityReportsWhatItHolds|TestVectorTierTracksEvictions|TestSemanticTierDropsEmptyBuckets|TestSemanticTierMatchesReference'
stress 'cache policy' "$policy" ./internal/qcache

# The span arena: traces recycled through the pool by concurrent
# schedules — stored, trimmed, evicted and grown again from the free lists
# while late spans still end — and the arena against its reference tracer,
# spans whose attributes move to overflow runs included; and a stored
# trace's text fitted to what it uses, with late writes after the store,
# over and over.
stress 'span arena' 'TestTraceRecycling|TestArenaMatchesReference|TestStoredTraceTextFits' ./internal/telemetry

# The metrics registry's lock-free recording: series published while
# others record into the existing ones and scrapes read them.
stress 'series publish' 'TestSeriesPublishRacesRecording|TestRegistryConcurrency' ./internal/telemetry

# Exact invalidation: drop passes judge entries outside the entry lock
# while PutAt, Get and the semantic probe run; and the server held to the
# flush-on-write rule it replaced, every cached RAG answer to a fresh
# retrieval (document ids are random, so each run orders ties anew).
stress 'cache invalidation' 'TestDropPassRacesPutAndProbe|TestExactInvalidationMatchesFlushReference' ./internal/qcache ./internal/server

# The vector database's one search against the flat scan it replaced, bit
# for bit, over the benchmark's questions and through writes that move
# rows; queries racing upserts and deletes across shards; and recovery of
# every prefix of a crashed write-ahead log, over and over.
vdb='TestRetrievalMatchesReference|TestRowsFollowWrites|TestConcurrentQueryUpsert|TestCrashRecoveryPrefix'
stress 'vector search' "$vdb" ./internal/vectordb

# The wire codecs against encoding/json, their reference: the string rule
# of internal/jsonwire, the formats built on it at both ends of the modeld
# hop and in the SSE egress (events and the result), and the traceparent
# header against the spec; the head of a daemon's reply, parsed in place,
# against http.ReadResponse, and its chunked body read on through reads
# that would wait; the daemon's stop-line watcher over any bytes a
# full-duplex body carries after the generate object; then the cache key's normal form against its
# three-pass reference, the cache's policy against its invariants and a
# model of what may be served, the warm-start entry decoder, and the vector kernel
# (embedding.Rows and its Selector) against a map model and a sort of every
# candidate — −0 is in its alphabet, so TopK's skipped zeros are checked
# against Dot bit for bit — and a session lifted onto chunk calls against
# the engine's own stream; and the tokenizer's memoized inference path
# against its reference, each input on a miss and then a hit, and its
# incremental trainer against the recounting one; and the
# engine's budget arithmetic for any num_predict and context length, and
# its plan against the plain planner for any prompt; and
# the vector database's search against its flat-scan reference over any
# texts, and Open over any manifest; and /api/query's pooled request
# decode against the capped json.Decoder it falls back to.
for target in 'FuzzString ./internal/jsonwire' 'FuzzTraceparent ./internal/telemetry' \
	'FuzzStreamLine ./internal/modeld' 'FuzzGenerateRequest ./internal/modeld' \
	'FuzzHopHead ./internal/modeld' 'FuzzStopLines ./internal/modeld' \
	'FuzzEventFrame ./internal/server' 'FuzzResultFrame ./internal/server' \
	'FuzzNormalize ./internal/qcache' 'FuzzCachePolicy ./internal/qcache' \
	'FuzzDecodeCachedAnswer ./internal/server' \
	'FuzzRows ./internal/embedding' 'FuzzLiftedSession ./internal/llm' \
	'FuzzCount ./internal/tokenizer' 'FuzzTrain ./internal/tokenizer' \
	'FuzzPlanBudget ./internal/llm' 'FuzzPlanMatchesReference ./internal/llm' \
	'FuzzRetrieval ./internal/vectordb' 'FuzzOpenManifest ./internal/vectordb' \
	'FuzzQueryRequest ./internal/server'; do
	fuzz $target
done

# The docs name what the code declares: every Go-looking name DESIGN.md and
# README.md put in backticks is declared or used in the tree's Go code,
# said on its line to be gone, or in scripts/namecheck.allow with the reason
# it stays — and every name there is still one the check would flag. And
# every DESIGN.md section that a Go comment, README.md or a script names
# by its quoted title is a heading or a bold run-in title of DESIGN.md.
echo "== name and section check: scripts/namecheck.sh against scripts/namecheck.allow"
./scripts/namecheck.sh

# Every internal package must be in the import closure of a binary: one
# that only tests and examples reach is code the product does not run.
# The one exception is internal/llm/llmtest, the tests' fault injector,
# which no binary may import at all: not cmd/*, not examples/*, not the
# benchmark harness.
echo "== reachability: go list ./internal/... within go list -deps ./cmd/..."
unreached=$(go list ./internal/... | grep -Fxv "$(go list -deps ./cmd/...)" |
	grep -Fxv llmms/internal/llm/llmtest || true)
if [ -n "$unreached" ]; then
	echo "packages under internal/ that no cmd/ binary imports:" >&2
	echo "$unreached" >&2
	exit 1
fi
echo "== test support: no binary imports llmms/internal/llm/llmtest"
importers=$( (go list -deps ./cmd/... ./examples/... && cd benchmark && go list -deps .) |
	grep -Fx llmms/internal/llm/llmtest || true)
if [ -n "$importers" ]; then
	echo "a binary under cmd/, examples/ or benchmark/ imports llmms/internal/llm/llmtest" >&2
	exit 1
fi

# Production code is what a binary links: every function and method
# declared under internal/ is linked into cmd/*, examples/* or the
# benchmark harness, or is named in scripts/linkcensus.allow with the
# reason it stays — and every name there is still declared and still
# unlinked, so the list cannot go stale.
echo "== link census: scripts/linkcensus.sh against scripts/linkcensus.allow"
census=$(mktemp -d)
./scripts/linkcensus.sh >"$census/printed"
sort "$census/printed" >"$census/unlinked"
awk '!/^#/ && NF { print $1 }' scripts/linkcensus.allow | sort >"$census/allowed"
reasonless=$(awk -F'\t' '!/^#/ && NF && $2 == "" { print $1 }' scripts/linkcensus.allow)
unlisted=$(comm -23 "$census/unlinked" "$census/allowed")
stale=$(comm -13 "$census/unlinked" "$census/allowed")
allowed=$(wc -l <"$census/allowed")
rm -rf "$census"
if [ -n "$reasonless" ]; then
	echo "link census: allowlisted without a reason (name, a tab, the reason):" >&2
	echo "$reasonless" >&2
	exit 1
fi
if [ -n "$unlisted" ]; then
	echo "link census: declared under internal/, linked into no binary, and not allowlisted:" >&2
	echo "$unlisted" >&2
	exit 1
fi
if [ -n "$stale" ]; then
	echo "link census: allowlisted but linked or no longer declared:" >&2
	echo "$stale" >&2
	exit 1
fi
echo "   link census ok: the $allowed allowlisted functions are linked into no binary, every other one is"

# benchmark/ is a module of its own (BENCHMARK.json's harness); the root
# module's ./... never compiles it, so vet and test it here.
echo "== benchmark: go vet ./... && go test ./..."
(cd benchmark && go vet ./... && go test ./...)

# One-iteration smoke of the remaining Go micro-benchmarks: proves the
# benchmark code itself still compiles and runs.
echo "== bench smoke (-benchtime=1x)"
go test -run='^$' -bench='ScoreAll|EncodeIncremental|EncodePrompt|InterSim|TopK' -benchtime=1x \
	./internal/core/ ./internal/embedding/ >/dev/null
go test -run='^$' -bench='ServeRoute' -benchtime=1x ./internal/server/ >/dev/null
go test -run='^$' -bench='Fleet' -benchtime=1x ./internal/fleet/ >/dev/null
go test -run='^$' -bench='BatchDecode|Count|Train' -benchtime=1x ./internal/llm/ ./internal/tokenizer/ >/dev/null
go test -run='^$' -bench='MemDB|WarmStartHitRate' -benchtime=1x \
	./internal/vectordb/ ./internal/qcache/ >/dev/null

# The four binaries' command lines: a size below 1, a stray argument
# (after which the flag package would stop parsing and drop every flag
# behind it), an unknown figure or system before any query runs, a
# retired flag, and a bad -wal-sync without -data-dir are each refused
# with exit status 2 and one line on stderr — no panic's goroutine dump,
# no usage screen, no server left running.
echo "== command lines"
smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"; [ -n "${smokepid:-}" ] && kill "$smokepid" 2>/dev/null || true' EXIT
for bin in llmms modeld evalrunner datagen; do
	go build -o "$smokedir/$bin" "./cmd/$bin"
done
refused() {
	bin=$1
	shift
	status=0
	timeout 20 "$smokedir/$bin" "$@" >/dev/null 2>"$smokedir/cli.err" </dev/null || status=$?
	lines=$(wc -l <"$smokedir/cli.err")
	if [ "$status" -ne 2 ] || [ "$lines" -ne 1 ] || grep -q goroutine "$smokedir/cli.err"; then
		echo "command lines: '$bin $*' exited $status with $lines lines on stderr, want 2 and one line:" >&2
		cat "$smokedir/cli.err" >&2
		exit 1
	fi
}
refused llmms -questions -1
refused modeld -questions -1
refused evalrunner -n -1
refused datagen -n -1
refused llmms -addr 127.0.0.1:0 -latency 0 stray -fleet 2
refused modeld -addr 127.0.0.1:0 -latency 0 stray
refused evalrunner -n 1 stray
refused datagen -n 1 stray
refused evalrunner -n 20 -figure 8.4
refused evalrunner -n 20 -breakdown xyz
refused llmms -trace-sample 0.5
refused modeld -addr 127.0.0.1:0 -wal-sync bogus
refused modeld -data-dir x
refused llmms -addr 127.0.0.1:0 -wal-sync bogus
# -h is no error: it exits 0 with the usage, every flag listed, on stderr.
helps() {
	status=0
	timeout 20 "$smokedir/$1" -h >"$smokedir/cli.out" 2>"$smokedir/cli.err" </dev/null || status=$?
	if [ "$status" -ne 0 ] || [ -s "$smokedir/cli.out" ] || ! grep -q '^Usage of ' "$smokedir/cli.err" ||
		! grep -q '^  -' "$smokedir/cli.err"; then
		echo "command lines: '$1 -h' exited $status, want 0 and the usage on stderr:" >&2
		cat "$smokedir/cli.out" "$smokedir/cli.err" >&2
		exit 1
	fi
}
helps llmms
helps modeld
helps evalrunner
helps datagen
echo "   command lines ok: sizes below 1, stray arguments, unknown names, retired flags and bad values exit 2 in one line; -h exits 0 with the usage"

# End-to-end crash-recovery smoke: boot with -data-dir, ingest a
# document and answer a query — whose stored trace must carry the §9.5
# decision log, ending with the answering model's win (read with jq) —
# restart the process, and require that the repeated query is a
# warm-cache HIT and the document survived. Then crash: ingest a second
# document, kill -9, restart, and require a MISS — the warm-start snapshot
# served the boot that read it, and a crash leaves none behind.
echo "== memdb recovery smoke"
addr=127.0.0.1:8093

start_llmms() {
	"$smokedir/llmms" -addr "$addr" -questions 50 -latency 0 \
		-data-dir "$smokedir/data" >>"$smokedir/smoke.log" 2>&1 &
	smokepid=$!
	for _ in $(seq 1 100); do
		if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then
			return 0
		fi
		sleep 0.1
	done
	echo "memdb smoke: server did not become healthy" >&2
	cat "$smokedir/smoke.log" >&2
	exit 1
}

stop_llmms() {
	kill -INT "$smokepid"
	wait "$smokepid" 2>/dev/null || true
	smokepid=""
}

start_llmms
curl -fsS -X POST -H 'Content-Type: application/json' \
	-d '{"filename":"facts.txt","content":"The capital of France is Paris."}' \
	"http://$addr/api/upload" >/dev/null
curl -fsS -D "$smokedir/query.headers" -o "$smokedir/query.sse" -X POST \
	-H 'Content-Type: application/json' \
	-d '{"query":"What is the capital of France?"}' \
	"http://$addr/api/query"
qid=$(tr -d '\r' <"$smokedir/query.headers" | awk -F': ' 'tolower($1)=="x-query-id"{print $2}')
model=$(sed -n 's/^data: //p' "$smokedir/query.sse" | tail -n 1 | jq -r '.result.model // ""')
last=$(curl -fsS "http://$addr/api/traces/$qid" | jq -r '.log[-1] // ""')
case "$last" in
"$model won"*) [ -n "$model" ] ;;
*) false ;;
esac || {
	echo "memdb smoke: trace $qid's decision log ends '$last', want a line naming the answer's model '$model'" >&2
	exit 1
}
stop_llmms

start_llmms
cache=$(curl -fsS -D - -o /dev/null -X POST -H 'Content-Type: application/json' \
	-d '{"query":"What is the capital of France?"}' \
	"http://$addr/api/query" | tr -d '\r' | awk -F': ' 'tolower($1)=="x-cache"{print $2}')
if [ "$cache" != "HIT" ]; then
	echo "memdb smoke: first repeated query after restart got X-Cache '$cache', want HIT" >&2
	cat "$smokedir/smoke.log" >&2
	exit 1
fi
if ! curl -fsS "http://$addr/api/documents" | grep -q 'facts.txt'; then
	echo "memdb smoke: uploaded document lost across restart" >&2
	exit 1
fi
curl -fsS -X POST -H 'Content-Type: application/json' \
	-d '{"filename":"more.txt","content":"Paris, on the Seine, is the capital of France."}' \
	"http://$addr/api/upload" >/dev/null
kill -9 "$smokepid"
wait "$smokepid" 2>/dev/null || true
smokepid=""

start_llmms
cache=$(curl -fsS -D - -o /dev/null -X POST -H 'Content-Type: application/json' \
	-d '{"query":"What is the capital of France?"}' \
	"http://$addr/api/query" | tr -d '\r' | awk -F': ' 'tolower($1)=="x-cache"{print $2}')
if [ "$cache" != "MISS" ]; then
	echo "memdb smoke: first query after a crash that followed an upload got X-Cache '$cache', want MISS" >&2
	cat "$smokedir/smoke.log" >&2
	exit 1
fi
stop_llmms
echo "   recovery smoke ok: X-Cache HIT after restart, document recovered, MISS after a crash"

# The knob census (make loc's last line) may not grow past the number
# below. A change that adds a knob raises it in its own diff and says why.
knob_limit=83
# DESIGN.md states what the code does and the tests that hold it, not how
# it came to be (CHANGES.md has that), within the lines below: a change
# that adds a paragraph there takes out as many.
design_limit=1000
echo "== size (make loc)"
size=$(./scripts/loc.sh)
printf '%s\n' "$size"
knobs=$(printf '%s\n' "$size" | tail -n 1 | awk '{print $1}')
if [ "$knobs" -gt "$knob_limit" ]; then
	echo "knob census: $knobs knobs, more than the $knob_limit this script allows" >&2
	exit 1
fi
design=$(wc -l <DESIGN.md)
echo "   DESIGN.md: $design lines (cap $design_limit)"
if [ "$design" -gt "$design_limit" ]; then
	echo "DESIGN.md: $design lines, more than the $design_limit this script allows" >&2
	exit 1
fi

echo "== ok"
