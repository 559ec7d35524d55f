package encoder

import "fmt"

// Verify regenerates every seed's window and confirms that each cube
// matches the vector at its assigned position and that every input cube was
// assigned exactly once. This is the end-to-end soundness check of the
// whole encoding pipeline (symbolic table, solver, seed fill, and concrete
// LFSR generation must all agree for it to pass).
func (e *Encoding) Verify() error {
	assigned := make([]int, e.Set.Len())
	for si, s := range e.Seeds {
		window := GenerateWindow(e.Cfg.LFSR, e.Cfg.PS, e.Cfg.Geo, s.Value, e.Cfg.WindowLen)
		for _, a := range s.Assignments {
			if a.Pos < 0 || a.Pos >= e.Cfg.WindowLen {
				return fmt.Errorf("encoder: seed %d assigns cube %d to position %d outside window", si, a.Cube, a.Pos)
			}
			if !e.Set.Cubes[a.Cube].Matches(window[a.Pos]) {
				return fmt.Errorf("encoder: seed %d: cube %d does not match window vector %d", si, a.Cube, a.Pos)
			}
			assigned[a.Cube]++
		}
	}
	for ci, n := range assigned {
		if n != 1 {
			return fmt.Errorf("encoder: cube %d assigned %d times, want exactly 1", ci, n)
		}
	}
	return nil
}
