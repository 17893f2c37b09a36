//go:build !harpdebug

package transport

// debugChecks gates the borrowed-message guard. The default build compiles
// it out; build with -tags harpdebug to poison released wire buffers.
const debugChecks = false
