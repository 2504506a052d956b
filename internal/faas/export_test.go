package faas

// WriteJSON is writeJSON, for the error-body table: no value a handler
// passes it fails to marshal, so its failure arm cannot be reached through
// ServeHTTP.
var WriteJSON = writeJSON
