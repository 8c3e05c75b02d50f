package workload

import (
	"encoding/json"
	"io"

	"imtao/internal/model"
)

// solutionJSON serialises a platform-wide assignment for archival
// (imtao-sim -save).
type solutionJSON struct {
	Centers   []centerSolJSON `json:"centers"`
	Transfers []transferJSON  `json:"transfers,omitempty"`
}

type centerSolJSON struct {
	Center int         `json:"center"`
	Routes []routeJSON `json:"routes,omitempty"`
}

type routeJSON struct {
	Worker int   `json:"worker"`
	Tasks  []int `json:"tasks"`
}

type transferJSON struct {
	Src    int `json:"src"`
	Dst    int `json:"dst"`
	Worker int `json:"worker"`
}

// WriteSolutionJSON serialises a solution.
func WriteSolutionJSON(w io.Writer, sol *model.Solution) error {
	out := solutionJSON{}
	for ci := range sol.PerCenter {
		cs := centerSolJSON{Center: ci}
		for _, r := range sol.PerCenter[ci].Routes {
			rt := routeJSON{Worker: int(r.Worker), Tasks: make([]int, len(r.Tasks))}
			for i, t := range r.Tasks {
				rt.Tasks[i] = int(t)
			}
			cs.Routes = append(cs.Routes, rt)
		}
		out.Centers = append(out.Centers, cs)
	}
	for _, tr := range sol.Transfers {
		out.Transfers = append(out.Transfers, transferJSON{
			Src: int(tr.Src), Dst: int(tr.Dst), Worker: int(tr.Worker),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
