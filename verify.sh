#!/bin/sh
# verify.sh — the full local gate: formatting, build, vet (gated on any
# finding), tests (including the admission goroutine-leak check and the
# registry sweep races under -race), then the end-to-end smoke: live
# dmserver probes, traced dmexp batch, chaos failover, the admission
# flood + graceful-drain drill, the model-store replica-failover drill,
# the 1024-row dmb1 classifyBatch drill, the 30s replica-churn soak,
# the journaled-workflow kill/resume drill, and the chained
# filterBatch -> clusterBatch binary-pipeline drill. The columnar batch
# kernels (cluster/regress/filter) get a targeted -race sweep of their
# bit-identity tests, and the SOAP envelope codec, the block decoders and
# the ARFF parser a short fuzz pass each.
# Run from the repo root.
set -eux

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go build ./...

# vet gates on output, not just exit code: anything it prints is a
# finding, and findings fail the gate.
vetout=$(go vet ./... 2>&1) || {
	echo "$vetout" >&2
	exit 1
}
if [ -n "$vetout" ]; then
	echo "go vet findings:" >&2
	echo "$vetout" >&2
	exit 1
fi

go test ./...
go test -race ./...

# The SOAP envelope codec is a hand-written scanner over untrusted bytes.
# A short fuzz pass per target holds the decoder to the encoding/xml
# reference (whatever it accepts, the reference accepts with the same
# message or fault) and the escaper to xml.EscapeText, byte for byte.
go test -run '^$' -fuzz '^FuzzUnmarshal$' -fuzztime 20s -parallel 2 ./internal/soap/
go test -run '^$' -fuzz '^FuzzEscape$' -fuzztime 10s -parallel 2 ./internal/soap/

# The block decoders and the ARFF parser read untrusted bytes too. The
# wire targets hold every decoder to bounded allocation (a header cannot
# claim more than its bytes back) and every accepted block to a
# bit-exact re-encode; the ARFF target holds the parser and writer to the
# reference copies in reference_test.go.
go test -run '^$' -fuzz '^FuzzUnmarshal$' -fuzztime 15s -parallel 2 ./internal/wire/
go test -run '^$' -fuzz '^FuzzUnmarshalResult$' -fuzztime 15s -parallel 2 ./internal/wire/
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 15s -parallel 2 ./internal/arff/

# The parallel kernels get a dedicated -race pass: the determinism and
# cancellation tests must hold when the fold/member/assignment fan-out
# actually interleaves.
go test -race -run 'Parallel|ForEach|Cancellation' \
	./internal/parallel/ ./internal/classify/ ./internal/cluster/ ./internal/attrsel/

# The model store gets its own -race pass: torn-tail recovery, concurrent
# Put/Get, the compaction protocol (two writers racing a compactor, the
# SIGKILL-at-every-byte crash sweep), and the two-replica session-resume
# paths must hold when store and harness access actually interleaves.
# dmsoak's report/quantile/scraper plumbing rides along.
go test -race ./internal/store/ ./internal/harness/ ./internal/services/ ./cmd/dmsoak/

# The harness hands each miss's load from the caller that runs it to the
# callers waiting on it; repeat those tests under the race detector so
# the flight hand-off (including a cancelled leader and a failed build)
# interleaves many ways.
go test -race -count 20 -run 'Concurrent|Shared|Parked' ./internal/harness/

# A deterministic short-mode soak: two real dmserver replicas on one
# store directory, a SIGKILL every 2.5s, background GC on — the run must
# end inside its error budget (exit 0) with zero failed requests and at
# least one kill survived.
SOAK_OUT=$(mktemp)
go run ./cmd/dmsoak -short -out "$SOAK_OUT"
grep -q '"failed": 0' "$SOAK_OUT"
grep -Eq '"kills": [1-9]' "$SOAK_OUT"
rm -f "$SOAK_OUT"

# The batched scoring path gets its own -race pass: the dmb1 codec's
# property/truncation tests and the dataset package's lazy column cache
# (built on first access, invalidated by row mutation) must hold under
# the race detector.
go test -race ./internal/wire/ ./internal/dataset/

# The columnar batch kernels ride the same gate: every registered
# clusterer, regressor and filter's batch path is swept for Float64bits
# identity against its row path, under -race so the column snapshots
# and the lazy cache interleave for real.
go test -race -run 'Batch' ./internal/cluster/ ./internal/regress/ ./internal/filter/

# Durable workflows and hedged dispatch get their own -race pass: the
# crash-at-every-step resume sweep, the journal torn-tail recovery, and
# the hedged-race cancellation/goroutine-leak checks must hold when the
# parallel scheduler and the hedge race actually interleave. The -short
# gate re-runs just the resume and hedge suites as a quick regression
# anchor.
go test -race ./internal/workflow/ ./internal/resilience/
go test -short -run 'Resume|Hedge|Journal' ./internal/workflow/ ./internal/resilience/

./scripts/smoke.sh
