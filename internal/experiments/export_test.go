package experiments

import "fmt"

// PrototypeBuilds reports, for r's sweep, how many times each prototype
// key has been built over the sweep's life and how many prototypes it holds
// now.
func PrototypeBuilds(r Runner) (builds map[string]int, held int) {
	s := r.Sweep.protos
	s.mu.Lock()
	defer s.mu.Unlock()
	builds = make(map[string]int, len(s.builds))
	for k, n := range s.builds {
		builds[fmt.Sprintf("%T%+v", k, k)] = n
	}
	return builds, len(s.entries)
}
