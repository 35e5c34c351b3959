// Per-shot dose: each shot of an evaluator carries a dose multiplier,
// so the shot delivers d × I_s instead of I_s. The variable-dose
// extension (vdose) optimizes these multipliers on the same incremental
// evaluator every fixed-dose heuristic uses.
//
// The multiplier folds into the per-row weights of the strip scanners
// — one multiply per scan, never per pixel — and x·1.0 == x exactly,
// so a configuration whose doses are all 1 evaluates bit-for-bit like
// one that never had doses. The dose slice stays nil until a shot
// first leaves unit dose, so rectangle-only solvers never allocate it.
//
// An L-shot is one flash and so one dose: Pair rejects shots at a
// non-unit dose, and SetShotDose rejects a non-unit dose on a paired
// shot.
package cover

import "fmt"

// ShotDose returns the dose multiplier of shot i (1 unless set by
// SetShotDose).
func (e *Eval) ShotDose(i int) float64 {
	if e.doses == nil {
		return 1
	}
	return e.doses[i]
}

// SetShotDose changes the dose multiplier of shot i to d, committing
// (d − ShotDose(i)) × I_s: O(support box). Setting the current dose is
// a no-op and counts no mutation. Panics if shot i is paired and d is
// not 1.
func (e *Eval) SetShotDose(i int, d float64) {
	e.checkDosable("SetShotDose", i, d)
	cur := e.ShotDose(i)
	if d == cur {
		return
	}
	if e.doses == nil {
		e.doses = make([]float64, len(e.Shots))
		for k := range e.doses {
			e.doses[k] = 1
		}
	}
	e.doses[i] = d
	e.applyShot(e.Shots[i], d-cur)
	if e.check {
		e.crossCheck("SetShotDose")
	}
}

// ShotDoseDelta returns the change in Eq. 5 cost if shot i's dose were
// set to d, without modifying the evaluator — the scoring counterpart
// of SetShotDose, and panicking under the same condition.
// O(support box).
func (e *Eval) ShotDoseDelta(i int, d float64) float64 {
	e.checkDosable("ShotDoseDelta", i, d)
	cur := e.ShotDose(i)
	if d == cur {
		return 0
	}
	e.Evals++
	return e.termScan([]doseTerm{{e.Shots[i], d - cur}})
}

// checkDosable panics when a non-unit dose is asked of a paired shot.
func (e *Eval) checkDosable(op string, i int, d float64) {
	if d != 1 && e.partner[i] >= 0 {
		panic(fmt.Sprintf("cover: %s(%d, %g): shot is L-paired", op, i, d))
	}
}
