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
