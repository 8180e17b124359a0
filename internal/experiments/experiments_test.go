package experiments

import (
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"specglobe/internal/earthmodel"
	"specglobe/internal/meshio"
	"specglobe/internal/perfmodel"
)

func TestFig5SmallScale(t *testing.T) {
	r, err := Fig5([]int{4, 8, 12})
	if err != nil {
		t.Fatal(err)
	}
	// The disk law must be a clear power law with exponent near 3
	// (points scale with the cube of the resolution).
	if r.Fit.Fit.B < 2.0 || r.Fit.Fit.B > 3.5 {
		t.Errorf("disk exponent %.2f, expected ~2.5-3", r.Fit.Fit.B)
	}
	if r.Fit.R2 < 0.98 {
		t.Errorf("poor fit R2=%.4f", r.Fit.R2)
	}
	// The 1 s mesh must be several times larger than the 2 s mesh
	// (paper: 108 TB vs 14 TB, factor ~7.7; cubic law gives 8).
	ratio := r.At1s / r.At2s
	if ratio < 4 || ratio > 12 {
		t.Errorf("1s/2s ratio %.1f, paper ~7.7", ratio)
	}
	s := r.String()
	for _, want := range []string{"FIG5", "14 TB", "fit"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestFig7ScalesSuperlinearly(t *testing.T) {
	const steps = 4
	r, err := Fig7([]int{4, 8}, steps)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// The fit runs through the element visits, so a second call repeats
	// it exactly.
	again, err := Fig7([]int{4, 8}, steps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Fit, r.Fit) || !reflect.DeepEqual(again.PaperSeries, r.PaperSeries) {
		t.Errorf("two Fig7 calls fit %+v %v and %+v %v", r.Fit, r.PaperSeries, again.Fit, again.PaperSeries)
	}
	// Every step visits every element, performed or skipped.
	for _, row := range r.Rows {
		if row.Elements <= 0 || row.Visits != steps*int64(row.Elements) {
			t.Errorf("res %d: %d visits, want %d steps x %d elements", row.Res, row.Visits, steps, row.Elements)
		}
	}
	// Doubling the resolution multiplies the full-domain work by the
	// element ratio, at least the cube of the resolution ratio. A 4-step
	// solve performs only the visits the wave has reached: 2.5x the
	// flops and 3.4x the bytes.
	a, b := r.Rows[0], r.Rows[1]
	if v := float64(b.Visits) / float64(a.Visits); v < 8 {
		t.Errorf("visits grew only %.2fx from NEX4 to NEX8", v)
	}
	if f := float64(b.Flops) / float64(a.Flops); f < 2 {
		t.Errorf("flops grew only %.2fx from NEX4 to NEX8", f)
	}
	if by := float64(b.Bytes) / float64(a.Bytes); by < 2 {
		t.Errorf("bytes grew only %.2fx from NEX4 to NEX8", by)
	}
	if b.Normalized != float64(b.Visits)/float64(a.Visits) {
		t.Errorf("normalized %.2f, want the visits ratio", b.Normalized)
	}
	// The paper's ~300x over a 6.7x resolution span: a cubic law.
	if e := r.Fit.Fit.B; e < 2.8 || e > 3.4 {
		t.Errorf("visit exponent %.2f, want ~3", e)
	}
	if len(r.PaperSeries) != 6 || r.PaperSeries[0] != 1 || r.PaperSeries[5] < 200 {
		t.Errorf("paper series %v, want 1 .. ~300", r.PaperSeries)
	}
	// The span extrapolated from the byte counts must be far beyond
	// linear too.
	fit, err := perfmodel.FitRuntimeModel([]perfmodel.Sample{
		{X: float64(a.Res), Y: float64(a.Bytes)}, {X: float64(b.Res), Y: float64(b.Bytes)}})
	if err != nil {
		t.Fatal(err)
	}
	series := fit.NormalizedSeries([]float64{96, 144, 288, 320, 512, 640})
	if last := series[len(series)-1]; last < 20 {
		t.Errorf("byte-fit span %.0f too small for a superlinear law", last)
	}
	if !strings.Contains(r.String(), "FIG7") {
		t.Error("missing report header")
	}
}

func TestCommFractionSmall(t *testing.T) {
	rows, err := CommSweep([]int{4}, []int{1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	f := rows[0].Fraction
	if f < 0 || f > 0.9 {
		t.Errorf("comm fraction %.3f implausible", f)
	}
	if !strings.Contains(CommFractionTable(rows).String(), "COMM%") {
		t.Error("missing header")
	}
}

func TestMemoryModelMatchesPaperShape(t *testing.T) {
	r, err := Memory([]int{4, 8, 12})
	if err != nil {
		t.Fatal(err)
	}
	if r.Fit.Fit.B < 2.0 || r.Fit.Fit.B > 3.5 {
		t.Errorf("memory exponent %.2f", r.Fit.Fit.B)
	}
	// The measured 2 s mesh lands within ~30x of the paper's 37 TB
	// (our storage layout is deliberately heavier; see MEM37 notes).
	if r.At2s < 5e12 || r.At2s > 30*37e12 {
		t.Errorf("2 s memory %s not within 30x of the paper's 37 TB", perfmodel.HumanBytes(r.At2s))
	}
	// The calibrated model reproduces the paper's arithmetic exactly:
	// 37 TB / 1.85 GB = 20000 cores per application.
	if math.Abs(r.CoresAt2s-20000) > 200 {
		t.Errorf("calibrated cores %.0f, want ~20000", r.CoresAt2s)
	}
	if len(r.Table6) != 6 {
		t.Errorf("table has %d rows", len(r.Table6))
	}
	// Calibrated model periods must land in the paper's regime (1-6 s)
	// on every partition.
	for _, row := range r.Table6 {
		if row.ModelPeriod < 1 || row.ModelPeriod > 6 {
			t.Errorf("%s: model period %.2f s out of regime", row.Run.Machine, row.ModelPeriod)
		}
	}
	if !strings.Contains(r.String(), "TAB6") {
		t.Error("missing header")
	}
}

func TestAttenuationFactor(t *testing.T) {
	r, err := Attenuation(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Attenuation adds memory-variable work to the solid force phase:
	// its flops grow, and its bytes, the cost of a memory-bound kernel,
	// by more than 1x and less than ~3x (paper: 1.8x in time). The CPU
	// factor is printed, not asserted.
	if r.Flops[1] <= r.Flops[0] {
		t.Errorf("solid force flops %d off, %d on: want growth", r.Flops[0], r.Flops[1])
	}
	if f := float64(r.Bytes[1]) / float64(r.Bytes[0]); f <= 1 || f > 3.5 {
		t.Errorf("solid force byte factor %.2f out of band (paper 1.8)", f)
	}
	t.Logf("CPU factor %.2f (off %v, on %v; paper 1.8x)", r.Factor, r.Off, r.On)
	if !strings.Contains(r.String(), "ATT1.8") {
		t.Error("missing header")
	}
}

// The legacy mesher redoes the geometry pass: one pass merged, two
// legacy. The wall-clock factor is printed, not asserted.
func TestMesherTwoPassFactor(t *testing.T) {
	r, err := Mesher(8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Passes != [2]int{1, 2} {
		t.Errorf("geometry passes %v, want [1 2] (merged, legacy)", r.Passes)
	}
	t.Logf("two-pass factor %.2f (merged %v, legacy %v; paper 2x)", r.Factor, r.SinglePass, r.TwoPass)
	if !strings.Contains(r.String(), "MESH2X") {
		t.Error("missing header")
	}
}

// The legacy database is 51 files per rank whose bytes are the files'
// sizes on disk; the merged handoff writes none.
func TestIOModes(t *testing.T) {
	r, err := IOModes(4)
	if err != nil {
		t.Fatal(err)
	}
	if r.LegacyFiles != 6*51 {
		t.Errorf("%d legacy files, want %d", r.LegacyFiles, 6*51)
	}
	if r.MergedFiles != 0 {
		t.Errorf("merged handoff wrote %d files", r.MergedFiles)
	}
	if r.FilesAt62K < 3_200_000 {
		t.Errorf("62K-core extrapolation %d files, paper says over 3.2M", r.FilesAt62K)
	}
	// The format is deterministic: the same mesh written again occupies
	// exactly LegacyBytes on disk.
	g, _, err := buildGlobe(earthmodel.EarthLike(), 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := meshio.WriteAllRanks(dir, g.Locals, g.Plans); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		onDisk += info.Size()
	}
	if len(entries) != r.LegacyFiles || onDisk != r.LegacyBytes {
		t.Errorf("%d files / %d bytes on disk, IOModes counted %d / %d", len(entries), onDisk, r.LegacyFiles, r.LegacyBytes)
	}
	if !strings.Contains(r.String(), "3.2 million") {
		t.Error("missing paper reference")
	}
}

// The overlap ablation must show the overlapped schedule exposing
// strictly less communication than the blocking baseline (at 6 ranks —
// one per cubed-sphere chunk — and at 24), and FIG6, COMM% and OVERLAP
// must be three readings of the same sweep rows.
func TestOverlapAblation(t *testing.T) {
	rows, err := CommSweep([]int{4}, []int{1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, row := range rows {
		if row.P < 4 {
			t.Fatalf("only %d ranks; the ablation needs a real decomposition", row.P)
		}
		if row.OuterFrac <= 0 || row.OuterFrac > 1 {
			t.Errorf("P=%d: outer fraction %.3f implausible", row.P, row.OuterFrac)
		}
		if row.Hidden <= 0 {
			t.Errorf("P=%d: overlap schedule hid no communication", row.P)
		}
		if row.Exposed >= row.TotalComm {
			t.Errorf("P=%d: exposed comm not reduced: on %.6fs vs off %.6fs",
				row.P, row.Exposed, row.TotalComm)
		}
		// The fractions divide by wall-clock busy time, so a loaded
		// runner adds noise; allow slack instead of a strict comparison
		// (the strict invariant is the exposed time above).
		if row.Fraction > row.BlockingFrac+0.05 {
			t.Errorf("P=%d: comm fraction not reduced: on %.4f vs off %.4f",
				row.P, row.Fraction, row.BlockingFrac)
		}
	}
	overlap := OverlapTable(rows).String()
	for _, want := range []string{"OVERLAP", "exposed-on", "exposed-off", "section 5"} {
		if !strings.Contains(overlap, want) {
			t.Errorf("report missing %q", want)
		}
	}

	// One sweep, three tables: COMM% prints OVERLAP's frac-on column,
	// and FIG6 lists the same (P, res) runs.
	fig6, err := Fig6(rows)
	if err != nil {
		t.Fatal(err)
	}
	overlapRows := tableRows(overlap)
	commRows := tableRows(CommFractionTable(rows).String())
	fig6Rows := tableRows(fig6.String())
	if len(overlapRows) != len(rows) || len(commRows) != len(rows) || len(fig6Rows) != len(rows) {
		t.Fatalf("table rows: OVERLAP %d, COMM%% %d, FIG6 %d; want %d each",
			len(overlapRows), len(commRows), len(fig6Rows), len(rows))
	}
	for key, fields := range overlapRows {
		if c, ok := commRows[key]; !ok || c[2] != fields[6] {
			t.Errorf("(P, res) = (%s): COMM%% fraction %v, OVERLAP frac-on %s", key, c, fields[6])
		}
		if _, ok := fig6Rows[key]; !ok {
			t.Errorf("(P, res) = (%s) in OVERLAP but not in FIG6", key)
		}
	}
}

// tableRows indexes a rendered table's data lines (those starting with
// the P column) by "P res".
func tableRows(table string) map[string][]string {
	rows := map[string][]string{}
	for _, line := range strings.Split(table, "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0][0] >= '0' && f[0][0] <= '9' {
			rows[f[0]+" "+f[1]] = f
		}
	}
	return rows
}

// The counts behind the SERVICE ablation's "margin dominated by session
// reuse": the daemon meshes once and fills every ensemble, one-shot runs
// pay one batch per job. The wall-clock ratio is printed, not asserted.
func TestServiceAblation(t *testing.T) {
	const jobs, maxBatch = 4, 2
	r, err := Service(4, 6, jobs, maxBatch, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[0].Mode != "one-shot" || r.Rows[1].Mode != "daemon" {
		t.Fatalf("rows %+v, want one-shot then daemon", r.Rows)
	}
	oneShot, daemon := r.Rows[0], r.Rows[1]
	if oneShot.Batches != jobs {
		t.Errorf("one-shot batches %d, want %d", oneShot.Batches, jobs)
	}
	if daemon.MaxS != maxBatch || daemon.Batches != jobs/maxBatch {
		t.Errorf("daemon maxS %d, batches %d; want %d, %d", daemon.MaxS, daemon.Batches, maxBatch, jobs/maxBatch)
	}
	if daemon.CacheBuilds != 1 || daemon.CacheHits != daemon.Batches-1 {
		t.Errorf("daemon session builds %d, hits %d; want 1, %d", daemon.CacheBuilds, daemon.CacheHits, daemon.Batches-1)
	}
	if !strings.Contains(r.String(), "SERVICE") {
		t.Error("missing header")
	}
	t.Logf("daemon %.2fx one-shot src-steps/s", daemon.Speedup)
}

func TestLoadBalance(t *testing.T) {
	s, err := LoadBalance(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Imbalance > 1.15 {
		t.Errorf("imbalance %.3f exceeds 15%%", s.Imbalance)
	}
	if math.IsNaN(s.MeanElems) || s.MeanElems <= 0 {
		t.Error("bad mean")
	}
}

// The MESHDBL ablation's acceptance claim: at equal surface resolution,
// doubling reduces the total element count and the halo surface-to-
// volume ratio on the chunk decomposition, with exposed comm reported
// overlapped and for the blocking baseline.
func TestMeshDoubling(t *testing.T) {
	r, err := MeshDoubling([][2]int{{8, 1}}, []float64{5200e3, 3000e3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows %d, want 2 (uniform + doubled)", len(r.Rows))
	}
	uni, dbl := r.Rows[0], r.Rows[1]
	if uni.Doubled || !dbl.Doubled {
		t.Fatalf("row order: %v/%v", uni.Doubled, dbl.Doubled)
	}
	if dbl.Elements >= uni.Elements {
		t.Errorf("doubling did not reduce elements: %d vs %d", dbl.Elements, uni.Elements)
	}
	if dbl.HaloPoints >= uni.HaloPoints {
		t.Errorf("doubling did not reduce halo points: %d vs %d", dbl.HaloPoints, uni.HaloPoints)
	}
	if dbl.SurfacePerVolume >= uni.SurfacePerVolume {
		t.Errorf("doubling did not reduce halo surface-to-volume: %.3f vs %.3f",
			dbl.SurfacePerVolume, uni.SurfacePerVolume)
	}
	for _, row := range r.Rows {
		if row.ExposedOn <= 0 || row.ExposedOff <= 0 {
			t.Errorf("doubled=%v: no exposed comm measured", row.Doubled)
		}
		if row.ExposedOn >= row.ExposedOff {
			t.Errorf("doubled=%v: overlap did not reduce exposed comm (%g vs %g)",
				row.Doubled, row.ExposedOn, row.ExposedOff)
		}
	}
	for _, want := range []string{"MESHDBL", "halo/elem", "doubling cuts elements"} {
		if !strings.Contains(r.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// Fig6 must extrapolate per machine: the slower-link Ranger fabric costs
// more than the SeaStar2 baseline at the same scale.
func TestFig6PerMachine(t *testing.T) {
	rows, err := CommSweep([]int{4, 8}, []int{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Fig6(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerMachine) != len(perfmodel.Catalog()) {
		t.Fatalf("per-machine rows %d", len(r.PerMachine))
	}
	var ranger, franklin *Fig6Machine
	for i := range r.PerMachine {
		switch r.PerMachine[i].Name {
		case "Ranger":
			ranger = &r.PerMachine[i]
		case "Franklin":
			franklin = &r.PerMachine[i]
		}
	}
	if ranger == nil || franklin == nil {
		t.Fatal("catalog machines missing from Fig6")
	}
	// Franklin runs the default SeaStar2 figures, so its rescaled model
	// equals the baseline; Ranger's slower link must cost more.
	if franklin.Pred62K != r.Pred62K {
		t.Errorf("Franklin rescaling changed the baseline: %g vs %g", franklin.Pred62K, r.Pred62K)
	}
	if ranger.Pred62K <= franklin.Pred62K {
		t.Errorf("Ranger (slower link) predicted cheaper than Franklin: %g vs %g",
			ranger.Pred62K, franklin.Pred62K)
	}
}
