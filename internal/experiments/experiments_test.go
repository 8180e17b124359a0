package experiments

import (
	"math"
	"strings"
	"testing"

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
	r, err := Fig7([]int{4, 8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// Doubling the resolution must increase total work superlinearly
	// (ideally ~8x; wall-clock noise on shared machines justifies a
	// loose band).
	if r.Rows[1].Normalized < 2 {
		t.Errorf("runtime grew only %.1fx from NEX4 to NEX8", r.Rows[1].Normalized)
	}
	if len(r.PaperSeries) != 6 || r.PaperSeries[0] != 1 {
		t.Errorf("paper series malformed: %v", r.PaperSeries)
	}
	// The extrapolated span must be far beyond linear (paper: ~300x
	// over a 6.7x resolution span).
	last := r.PaperSeries[len(r.PaperSeries)-1]
	if last < 20 {
		t.Errorf("normalized span %.0f too small for a superlinear law", last)
	}
	if !strings.Contains(r.String(), "FIG7") {
		t.Error("missing report header")
	}
}

func TestCommFractionSmall(t *testing.T) {
	r, err := CommFraction([]int{4}, []int{1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	f := r.Rows[0].Fraction
	if f < 0 || f > 0.9 {
		t.Errorf("comm fraction %.3f implausible", f)
	}
	if !strings.Contains(r.String(), "COMM%") {
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
		t.Errorf("2 s memory %s not within 30x of the paper's 37 TB", formatBytes(r.At2s))
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
	// Attenuation adds memory-variable work: the factor must exceed 1
	// and stay below ~3 (paper: 1.8).
	if r.Factor < 1.0 || r.Factor > 3.5 {
		t.Errorf("attenuation factor %.2f out of band (paper 1.8)", r.Factor)
	}
	if !strings.Contains(r.String(), "ATT1.8") {
		t.Error("missing header")
	}
}

func TestMesherTwoPassFactor(t *testing.T) {
	r, err := Mesher(8)
	if err != nil {
		t.Fatal(err)
	}
	// The legacy mode redoes the material pass: expect a 1.2x-3x cost
	// (paper: 2x; our geometry pass is heavier than material
	// assignment so the factor is smaller but must be clearly > 1).
	if r.Factor < 1.1 || r.Factor > 3.5 {
		t.Errorf("two-pass factor %.2f out of band (paper 2x)", r.Factor)
	}
	if !strings.Contains(r.String(), "MESH2X") {
		t.Error("missing header")
	}
}

func TestIOModes(t *testing.T) {
	r, err := IOModes(4)
	if err != nil {
		t.Fatal(err)
	}
	if r.LegacyFiles != 6*51 {
		t.Errorf("%d legacy files, want %d", r.LegacyFiles, 6*51)
	}
	if r.FilesAt62K < 3_200_000 {
		t.Errorf("62K-core extrapolation %d files, paper says over 3.2M", r.FilesAt62K)
	}
	if r.MergedTime >= r.LegacyTime {
		t.Errorf("merged handoff (%v) not faster than legacy I/O (%v)", r.MergedTime, r.LegacyTime)
	}
	if !strings.Contains(r.String(), "3.2 million") {
		t.Error("missing paper reference")
	}
}

// The overlap ablation must show the overlapped schedule exposing
// strictly less communication than the blocking baseline (here at 6
// ranks — one per cubed-sphere chunk).
func TestOverlapAblation(t *testing.T) {
	r, err := Overlap([]int{4}, []int{1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	row := r.Rows[0]
	if row.P < 4 {
		t.Fatalf("only %d ranks; the ablation needs a real decomposition", row.P)
	}
	if row.OuterFrac <= 0 || row.OuterFrac > 1 {
		t.Errorf("outer fraction %.3f implausible", row.OuterFrac)
	}
	if row.HiddenOn <= 0 {
		t.Error("overlap schedule hid no communication")
	}
	if row.ExposedOn >= row.ExposedOff {
		t.Errorf("exposed comm not reduced: on %.6fs vs off %.6fs",
			row.ExposedOn, row.ExposedOff)
	}
	// The fractions divide by wall-clock busy time, so a loaded runner
	// adds noise; allow slack instead of a strict comparison (the strict
	// invariant is the exposed time above).
	if row.FracOn > row.FracOff+0.05 {
		t.Errorf("comm fraction not reduced: on %.4f vs off %.4f",
			row.FracOn, row.FracOff)
	}
	for _, want := range []string{"OVERLAP", "exposed-on", "exposed-off", "section 5"} {
		if !strings.Contains(r.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
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

func formatBytes(b float64) string { return perfmodel.HumanBytes(b) }

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

// The per-machine overlap sweep must produce one row per catalog
// machine, with slower links hiding and exposing more virtual time.
func TestOverlapMachines(t *testing.T) {
	r, err := OverlapMachines(4, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	cat := perfmodel.Catalog()
	if len(r.Rows) != len(cat) {
		t.Fatalf("rows %d, want %d", len(r.Rows), len(cat))
	}
	for _, row := range r.Rows {
		if row.Exposed <= 0 && row.Hidden <= 0 {
			t.Errorf("%s: no virtual comm accounted", row.Machine)
		}
	}
}

// Fig6 must extrapolate per machine: the slower-link Ranger fabric costs
// more than the SeaStar2 baseline at the same scale.
func TestFig6PerMachine(t *testing.T) {
	r, err := Fig6([]int{4, 8}, []int{1}, 2)
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
