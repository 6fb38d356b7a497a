// Mini event engine mirroring internal/sim's scheduling surface, so the
// poolsafe fixtures can exercise recognition of Sim methods.
package sim

// Time is simulated time.
type Time int64

// Sim is the fixture stand-in for the simulator core.
type Sim struct {
	now Time
}

// New returns a simulator.
func New() *Sim { return &Sim{} }

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// At runs fn at absolute time at.
func (s *Sim) At(at Time, fn func()) { fn() }

// After runs fn after delay.
func (s *Sim) After(delay Time, fn func()) { fn() }

// Schedule runs fn after delay.
func (s *Sim) Schedule(delay Time, fn func()) { fn() }
