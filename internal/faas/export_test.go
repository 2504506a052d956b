package faas

import (
	"context"

	"acctee/internal/core"
)

// WriteJSON is writeJSON, for the error-body table: no value a handler
// passes it fails to marshal, so its failure arm cannot be reached through
// ServeHTTP.
var WriteJSON = writeJSON

// Run is one run of the function on the body and dimensions a request
// carries, as ServeHTTP runs it in a wasm setup (the accounting enclave's
// run in the instrumented setups, the plain sandbox's in the others), for
// tests that read the RunResult the response headers leave out.
func (s *Server) Run(body []byte, width, height int) (core.RunResult, error) {
	return s.run(context.Background(), &payload{body: body, accounted: s.setup == SetupSGXHWIO}, width, height)
}

// Route is a row of the route table as a test reads it.
type Route struct{ Pattern, Policy string }

// Routes returns the route table, each policy by name.
func Routes() []Route {
	names := [...]string{probe: "probe", ledger: "ledger", invoke: "invoke"}
	rs := make([]Route, len(routes))
	for i, rt := range routes {
		rs[i] = Route{rt.pattern, names[rt.policy]}
	}
	return rs
}
