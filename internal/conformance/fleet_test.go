package conformance

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/machines/cmmp"
	"repro/internal/machines/hep"
	"repro/internal/machines/ultra"
	"repro/internal/sim"
	"repro/internal/vn"
)

// TestPauseContract drives each fleet constructor through the pause
// contract: the machine's own Run stopped at a small limit returns an
// error that is sim.ErrLimit with the machine's exact message, the fleet
// Run continues it to the snapshot of a straight run, and on the vn
// family an address fault is an error that is not sim.ErrLimit.
func TestPauseContract(t *testing.T) {
	c, err := compile(Generate(1))
	if err != nil {
		t.Fatal(err)
	}
	const limit = 5
	// own runs a member's underlying machine for limit cycles.
	own := func(m Machine) error {
		if tm, ok := m.(*TTDA); ok {
			_, err := tm.m.Run(limit, tm.args...)
			return err
		}
		_, err := m.(*vnMember).vnRunner.Run(limit)
		return err
	}
	fault, err := vn.Assemble("li r1, 7\nli r2, 4294967360\nst r1, r2, 0\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		build func(prog *vn.Program) Machine
		msg   string
	}{
		{"ttda", func(*vn.Program) Machine { return NewTTDA(core.Config{PEs: 2}, c.plan, c.args) },
			`core: program "minid" did not finish within 5 cycles`},
		{"vn", func(p *vn.Program) Machine { return NewVN(p, 2, 4) },
			"vn: did not halt within 5 cycles"},
		{"cmmp", func(p *vn.Program) Machine { return NewCmmp(cmmp.Config{Processors: 2, Banks: 2}, p) },
			"cmmp: did not halt within 5 cycles"},
		{"cmstar", func(p *vn.Program) Machine { return NewCmstar(cmstarConfig(3), p) },
			"cmstar: did not halt within 5 cycles"},
		{"ultra", func(p *vn.Program) Machine { return NewUltra(ultra.Config{LogProcessors: 2, Combining: true}, p) },
			"ultra: did not halt within 5 cycles"},
		{"hep", func(p *vn.Program) Machine { return NewHEP(hep.Config{Processors: 2, ContextsPerCore: 1}, p) },
			"hep: did not halt within 5 cycles"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := finish(tc.build(c.asm), false)
			if err != nil {
				t.Fatal(err)
			}
			m := tc.build(c.asm)
			if err := own(m); !errors.Is(err, sim.ErrLimit) || err.Error() != tc.msg {
				t.Fatalf("paused run returned %v; want sim.ErrLimit with message %q", err, tc.msg)
			}
			if done, err := m.Run(runLimit); !done || err != nil {
				t.Fatalf("continued run: done=%v err=%v", done, err)
			}
			if got := m.Snapshot(); got != want {
				t.Fatalf("continued run diverged from the straight run:\n  straight %+v\n  split    %+v", want, got)
			}
			if tc.name == "ttda" {
				return
			}
			done, err := tc.build(fault).Run(runLimit)
			var af *vn.AddressFault
			if done || errors.Is(err, sim.ErrLimit) || !errors.As(err, &af) {
				t.Fatalf("address fault: done=%v err=%v; want a vn.AddressFault that is not sim.ErrLimit", done, err)
			}
		})
	}
}
