//go:build harpdebug

package transport

// debugChecks enables the borrowed-message guard: an envelope's wire
// buffer is overwritten the moment the envelope is released, so a handler
// that kept a slice of a delivered message (see Handler) reads poison at
// once instead of whatever the envelope's next message happens to be.
const debugChecks = true
