package wire

import (
	"testing"

	"repro/internal/service"
)

// TestControlPathsCoverRoutes checks both transports serve the same
// control plane: every route in the shared table has a wire message
// type, and every control message type names a route.
func TestControlPathsCoverRoutes(t *testing.T) {
	mapped := map[string]bool{}
	for typ, path := range controlPaths {
		if _, ok := service.Routes[path]; !ok {
			t.Errorf("%s maps to %q, which is not in service.Routes", typ, path)
		}
		mapped[path] = true
	}
	for path := range service.Routes {
		if !mapped[path] {
			t.Errorf("route %s has no wire message type", path)
		}
	}
}
