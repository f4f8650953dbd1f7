package trace

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

type idKey struct{}

// ContextWithID attaches a distributed trace ID to ctx: the ID the serving
// layer logs a request under and the shard coordinator hands every worker
// in its job spec.
func ContextWithID(ctx context.Context, traceID string) context.Context {
	return context.WithValue(ctx, idKey{}, traceID)
}

// IDFromContext returns the trace ID attached to ctx ("" if none).
func IDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(idKey{}).(string)
	return id
}

// idNonce makes trace IDs from different processes distinguishable even
// when their counters collide; the startup clock plus pid is enough for a
// fleet of cooperating nodes (trace IDs are correlation keys, not secrets).
var (
	idNonce = uint64(time.Now().UnixNano())<<8 ^ uint64(os.Getpid())
	idSeq   atomic.Uint64
)

// NewTraceID returns a process-unique, fleet-distinguishable trace ID.
func NewTraceID() string {
	return fmt.Sprintf("t%x-%x", idNonce&0xffffffffff, idSeq.Add(1))
}
