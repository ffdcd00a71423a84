package hpcc

import (
	"testing"

	"ookami/internal/machine"
	"ookami/internal/omp"
	"ookami/internal/perfmodel"
)

func TestRunStreamProducesSaneRates(t *testing.T) {
	team := omp.NewTeam(2)
	results := RunStream(team, 1<<16, 3)
	if len(results) != 4 {
		t.Fatalf("kernel count %d", len(results))
	}
	names := []string{"copy", "scale", "add", "triad"}
	for i, r := range results {
		if r.Kernel != names[i] {
			t.Errorf("kernel %d = %s", i, r.Kernel)
		}
		if r.GBs <= 0 || r.GBs > 1e4 {
			t.Errorf("%s rate %v implausible", r.Kernel, r.GBs)
		}
		if r.Checksum == 0 {
			t.Errorf("%s checksum zero — work elided?", r.Kernel)
		}
	}
}

func TestStreamKernelsComputeCorrectValues(t *testing.T) {
	// After copy/scale/add/triad with a=1, b=2, c=0 initial state the
	// final arrays satisfy: c=a+b computed from post-scale values.
	team := omp.NewTeam(3)
	RunStream(team, 1024, 1)
	// The run mutates internal arrays; correctness is enforced by the
	// deterministic checksums instead: re-run and compare.
	r1 := RunStream(team, 1024, 2)
	r2 := RunStream(omp.NewTeam(1), 1024, 2)
	for i := range r1 {
		if r1[i].Checksum != r2[i].Checksum {
			t.Errorf("%s checksum differs across team sizes: %v vs %v",
				r1[i].Kernel, r1[i].Checksum, r2[i].Checksum)
		}
	}
}

// modelRates gives the STREAM triad rate (GB/s) and the RandomAccess
// rate (G updates/s) that p threads on m sustain under first-touch:
// triad reaches ~92% of the stream bandwidth, and each 8-byte update
// reads and writes 16 bytes of random-access bandwidth.
func modelRates(m machine.Machine, p int) (triad, gups float64) {
	stream, random := perfmodel.EffectiveBW(m, p, perfmodel.FirstTouch, 0)
	return stream * 0.92, random / 16
}

func TestModelStreamTriadShape(t *testing.T) {
	// Single core: a fraction of node bandwidth; full node: saturates
	// near the machine's aggregate, with A64FX >> Skylake — the paper's
	// bandwidth argument.
	a1, _ := modelRates(machine.A64FX, 1)
	a48, _ := modelRates(machine.A64FX, 48)
	s36, _ := modelRates(machine.SkylakeGold6140, 36)
	if a1 >= a48 {
		t.Error("stream must scale with threads")
	}
	if a48 < 800 || a48 > 1024 {
		t.Errorf("A64FX node triad %v, want near 1 TB/s", a48)
	}
	if a48/s36 < 3 {
		t.Errorf("A64FX/Skylake triad ratio %.1f, want ~4x", a48/s36)
	}
}

func TestRunGUPSVerifies(t *testing.T) {
	team := omp.NewTeam(4)
	r := RunGUPS(team, 16, 1<<18)
	if r.TableWords != 1<<16 {
		t.Errorf("table %d", r.TableWords)
	}
	if r.GUPS <= 0 {
		t.Error("no rate")
	}
	// HPCC tolerates 1% errors from unsynchronized updates; the serial
	// replay on a correct implementation must land well under that.
	if r.ErrorFrac > 0.01 {
		t.Errorf("error fraction %.4f exceeds the HPCC 1%% budget", r.ErrorFrac)
	}
}

func TestRunGUPSSerialIsExact(t *testing.T) {
	// With one thread there are no races: the replay must restore the
	// table exactly.
	r := RunGUPS(omp.NewTeam(1), 14, 1<<16)
	if r.ErrorFrac != 0 {
		t.Errorf("serial GUPS error fraction %v, want 0", r.ErrorFrac)
	}
}

func TestModelGUPSShape(t *testing.T) {
	// A64FX's random-access weakness: per-core GUPS well under Skylake's.
	_, a1 := modelRates(machine.A64FX, 1)
	_, s1 := modelRates(machine.SkylakeGold6140, 1)
	if a1 >= s1 {
		t.Errorf("A64FX single-core GUPS (%v) should trail Skylake (%v)", a1, s1)
	}
	// At full node the HBM's parallelism turns the tables.
	_, a48 := modelRates(machine.A64FX, 48)
	_, s36 := modelRates(machine.SkylakeGold6140, 36)
	if a48 <= s36 {
		t.Errorf("A64FX node GUPS (%v) should beat Skylake (%v)", a48, s36)
	}
}
