package faas

import "acctee/internal/core"

// WriteJSON is writeJSON, for the error-body table: no value a handler
// passes it fails to marshal, so its failure arm cannot be reached through
// ServeHTTP.
var WriteJSON = writeJSON

// Run is one run of the function in the gateway's accounting enclave, with
// the payload a request carries: what serveWasm runs, for tests that read
// the RunResult the response headers leave out.
func (s *Server) Run(body []byte, args ...uint64) (core.RunResult, error) {
	return s.ae.Run(core.RunOptions{Entry: "run", Args: args,
		Payload: &payload{body: body, accounted: s.setup == SetupSGXHWIO}})
}
