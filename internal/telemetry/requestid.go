package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync/atomic"
)

var reqCounter atomic.Uint64

// NewRequestID returns a short unique request identifier: 8 random
// bytes hex-encoded, falling back to a process-local counter if the
// system randomness source fails.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "req-" + strconv.FormatUint(reqCounter.Add(1), 16)
	}
	return hex.EncodeToString(b[:])
}
