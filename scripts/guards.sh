#!/bin/sh
# Stay-deleted guards, run by the CI test job and locally via
#   ./scripts/guards.sh
# 1. no Go file names anything on the retired list below (the last
#    fourteen lines: clustered local time stepping and its level wheel, the
#    coordinate-key point indexer, the pre-gather page-range skip with
#    the element point ranges it read, the rank's reused pack buffer,
#    which Isend's copy needed, and the code no caller ran: the 1-D SEM
#    and seismogram-processing packages, the surface movie with the
#    Gather and carrier encoding only it used, helpers only their own
#    tests called, and mpi's blocking Recv and SendRecv; then more
#    helpers only their own tests called, specfem's -combined-halo flag,
#    and the per-layer resolution and stable-dt walks that LayerAudits
#    replaced; then the legacy file handoff as a product mode — the
#    Config knobs, specfem's flag, the iomodes example — and meshio's
#    per-value byte helpers, which encoding/binary replaced; then the
#    experiments' own repetition rules, which bestOf replaced, and the
#    profiler collector, which a per-rank slice replaced; then the
#    second copies on a job's way to a seismogram — the receiver's
#    nearest-point flag, which a snapped Ref and one-hot weights
#    replaced, the service's second JobSpec resolution, specfemd's
#    selftest, which the service tests cover, Session's extra run
#    methods, which RunBatchStream replaced, and perfmodel's three
#    power-law types, which PowerModel replaced; then the second comm
#    ledger — perf's hidden phase and total, which mpi.Stats holds — and
#    the mpi calls no solver code made: the wildcard source, the
#    barrier, the stats reset with the twin counters it forced, and the
#    min reduction. Waitall is not listed: the haloreq fixture double
#    defines its own),
# 2. the root benchmark file and root-level BENCH_PR*.json snapshots
#    stay gone (the eight snapshots are history in docs/history/),
# 3. every experiment run goes through the one solver.Run call of
#    internal/experiments (solve),
# 4. the solver charges its profiler from at most five call sites,
# 5. coordinate keys (mesh.KeyOf, mesh.PointKey) stay inside
#    internal/mesh, where only the cross-rank halo match and its tests
#    use them: the meshers number points by their lattice.
# 6. every package under internal/ is imported by a non-test Go file
#    outside itself: a package only its own tests use is deleted, not
#    kept for a future caller.
# 7. no assembly file loads or stores MXCSR: the flush-to-zero mode does
#    not survive goroutines migrating between threads, so subnormals are
#    kept out in the data (the integrator's ftz, the mesher's metric
#    snap), not by the FP mode.
# 8. no assembly file uses a fused multiply-add (VFMADD*, VFMSUB*,
#    VFNMADD*, VFNMSUB*): the vector bodies must produce the bits of the
#    Go bodies, which round every product before the add.
# 9. the retired CombinedSolidHalo field (every run sends the combined
#    solid halo) is named only by its two declarations, with their doc
#    comments, and by internal/bench, which still sets it.
set -u
fail=0

# One extended regex per line, grouped by what was retired.
retired=$(paste -sd '|' <<'EOF'
KernelFused|KernelBlas|PredictorLTS|CorrectorLTS
rs\.lts (==|!=) nil|ltsPts|sweepsFor|firingPasses|pts\.single|RefreshInterfaces|LTSRateWeightedReduction
OverlapMode|OverlapOff|OverlapOn|fluidDeferred|rs\.overlap
\b(dx|dy|dz|vx|vy|vz|ax|ay|az|rhatX|rhatY|rhatZ) +\[\]float32
func \(rs \*rankState\) (solidUpdate|corrector)\(|lp\.final
divideFluidList|fluidMassDivisionFace|fluidCorrector|finishSolidStage|sweepRange|chiSrc|lp\.face|lp\.rest
TestWriteBench|BENCH_SNAPSHOT|writeBenchJSON|experiments\.Hybrid|HybridResult
OverlapMachines|CommFracResult|timedRun
newmarkPass|accHold|hChi|couplingFacePoints|lp\.shadow|ElemsUpTo|unionSorted
elemMinSpacing|elemMaxVelocity|MinGLLSpacing|func stableDt
AddFlops|AddBytes|AddSkippedVisits|AddPageSkippedVisits|AddSkippedPoints|prof\.Time\(|rs\.solidHalo|rs\.solidSets
func \(rs \*rankState\) (predictor|fluidStage|solidStage|fluidTail|solidTail)\(
BuildClusters|Clustering|ltsLevelOf|wheelLevels|levelSweeps|reconcilePointRates|multiRate|upToRate|\.held\b|LTSInfo|StepsOfFinestPerSec|RateWeightedReduction|ComputeLoadStatsRated|LTSAblation|JobSpec\.LTS
levelPlan|buildLevels|firePoints|oceanPoint|levelRoutes|fullRoute|rs\.lp\b|ElementDts|elementRates|normalizeRate|intersectSorted
PointIndexer|NewPointIndexer
deadElem|PageSkippedVisits|PageElems|\bPtLo\b|\bPtHi\b|UpdatePointRanges
packBuf
\binternal/(sem1d|seismo|carrier)\b|\b(SurfaceMovieEvery|Movie|MovieFrame|PeakFrame|movieSupported)\b|\bgatherMovie|\.Gather\(
\b(InterpolateField|InterpolateVectorField|StepSTF|FormatSeries|LayerName|PolyFit|PolyEval|FlopsModel|CatalogWithLocal)\b
\b(SendRecv|chargeVirtualRecv)\b|\.Recv\([^)]
\b(BoundaryUnion|CouplingOuterFraction|Load4|Splat4|Store4|MulAdd|Transpose|NexPerSlice|ElemRange|SliceOfElem|CentralCubeOwner|PaperPeriodResolution)\b|func \([a-z]+ Vec4\) (Add|Mul)\(
combined-halo|\b(LayerResolutions|LayerStableDts?|LayerResolution)\b
\b(LegacyIO|LegacyDir|putU32|putU64|putF32s|putI32s|i32sAlloc|regionArrayNames)\b|legacy-io|iomodes
\b(fastestRun|fig7Budget|mesherRuns|NewCollector)\b
NearestPoint|configFor|runSelftest|\bRunBatch\b|DiskModel|RuntimeModel|MemoryModel
\bAnySource\b|\bOpMin\b|\.Barrier\(|ResetStats|commWallMono|hiddenMono|PhaseCommHidden|mpi_hidden|TotalCommTime
EOF
)
if grep -rnE "$retired" --include='*.go' .; then
    echo "guards: a retired name is back (above)" >&2
    fail=1
fi

if [ -e bench_test.go ] || [ -n "$(ls BENCH_PR*.json 2>/dev/null)" ]; then
    echo "guards: bench_test.go or a root BENCH_PR*.json snapshot is back" >&2
    fail=1
fi

# The step charges the profiler at its mark and per beat alone: at most
# five profiler call sites in the solver outside its tests.
profs=$(cat $(ls internal/solver/*.go | grep -v '_test\.go$') | grep -o 'rs\.prof\.' | wc -l)
if [ "$profs" -gt 5 ]; then
    echo "guards: internal/solver has $profs rs.prof. call sites, want at most 5" >&2
    fail=1
fi

if grep -rnE '\b(KeyOf|PointKey)\b' --include='*.go' . | grep -v '^\./internal/mesh/'; then
    echo "guards: a coordinate key is used outside internal/mesh (above)" >&2
    fail=1
fi

runs=$(grep -h 'solver\.Run(' $(ls internal/experiments/*.go | grep -v '_test\.go$') | wc -l)
if [ "$runs" -ne 1 ]; then
    echo "guards: internal/experiments calls solver.Run $runs times, want 1" >&2
    fail=1
fi

# .Imports leaves out test imports, so a package that only tests
# import counts as an orphan.
if ! list=$(go list -f '{{.ImportPath}} {{join .Imports " "}}' ./...); then
    echo "guards: go list failed" >&2
    fail=1
fi
orphans=$(printf '%s\n' "$list" | awk '
    { pkg[$1] = 1; for (i = 2; i <= NF; i++) used[$i] = 1 }
    END { for (p in pkg) if (p ~ /\/internal\// && !(p in used)) print p }' | sort)
if [ -n "$orphans" ]; then
    printf '%s\n' "$orphans" >&2
    echo "guards: no non-test Go file outside these internal packages imports them (above)" >&2
    fail=1
fi

if grep -rniE '\bV?(LD|ST)MXCSR\b' --include='*.s' .; then
    echo "guards: an assembly file sets or reads MXCSR (above)" >&2
    fail=1
fi

if grep -rniE '\bVFN?M(ADD|SUB)' --include='*.s' .; then
    echo "guards: an assembly file uses a fused multiply-add (above)" >&2
    fail=1
fi

if grep -rn 'CombinedSolidHalo' --include='*.go' . | grep -v '^\./internal/bench/' |
    grep -vE '^\./internal/(solver/solver|core/core)\.go:[0-9]+:[[:space:]]*(//|CombinedSolidHalo[[:space:]]+bool$)'; then
    echo "guards: the retired CombinedSolidHalo is named outside its declarations and internal/bench (above)" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "guards: ok"
