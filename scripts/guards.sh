#!/bin/sh
# Stay-deleted guards, run by the CI test job and locally via
#   ./scripts/guards.sh
# 1. no Go file names anything on the retired list below (the last
#    five lines: clustered local time stepping and its level wheel, the
#    coordinate-key point indexer, the pre-gather page-range skip with
#    the element point ranges it read, and the rank's reused pack
#    buffer, which Isend's copy needed),
# 2. the root benchmark file and root-level BENCH_PR*.json snapshots
#    stay gone (the eight snapshots are history in docs/history/),
# 3. every experiment run goes through the two solver.Run calls of
#    internal/experiments (solveCentral and fastestRun),
# 4. the solver charges its profiler from at most five call sites,
# 5. coordinate keys (mesh.KeyOf, mesh.PointKey) stay inside
#    internal/mesh, where only the cross-rank halo match and its tests
#    use them: the meshers number points by their lattice.
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
if [ "$runs" -ne 2 ]; then
    echo "guards: internal/experiments calls solver.Run $runs times, want 2" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "guards: ok"
