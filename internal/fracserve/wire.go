// Package fracserve is the long-running fracturing service: an HTTP
// JSON daemon exposing the maskfrac solvers behind a bounded worker
// pool and a content-addressed shape cache, plus the Go client for it.
//
// Endpoints:
//
//	POST /fracture — fracture one shape or a batch (Request/Response)
//	POST /solve    — fracture one multi-shape instance through the
//	                 decompose–solve–stitch engine (SolveRequest/SolveResponse)
//	POST /plan     — plan a character-projection stencil from the cache's
//	                 class statistics (PlanRequest/PlanResponse)
//	GET  /healthz  — liveness probe
//	GET  /stats    — cache counters, queue depth, per-method aggregates;
//	                 ?classes=K adds the top-K congruence classes
//	POST /stats/classes — credit congruence classes with placements a
//	                 batch client memoized locally (ClassUsesRequest)
//	GET  /debug/traces — retained request traces (see tracestore)
package fracserve

import (
	"maskfrac/internal/stencil"
	"maskfrac/internal/telemetry"
)

// Request is the POST /fracture body. Exactly one of Shape or Shapes
// must be set. Zero-valued fields select the server's defaults.
type Request struct {
	// Shape is a single polygon as a [[x,y], ...] vertex list.
	Shape [][2]float64 `json:"shape,omitempty"`
	// Shapes is a batch of polygons, fractured concurrently.
	Shapes [][][2]float64 `json:"shapes,omitempty"`
	// Method is the fracturing method (default "mbf").
	Method string `json:"method,omitempty"`
	// Params overrides the server's fracturing parameters.
	Params *ParamsWire `json:"params,omitempty"`
	// Options tunes the selected method.
	Options *OptionsWire `json:"options,omitempty"`
	// TimeoutMS caps this request's wall time in milliseconds; 0
	// selects the server default. The server clamps it to its maximum.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// OmitShots drops the shot lists from the response, returning only
	// counts and evaluation results (useful for large batches).
	OmitShots bool `json:"omit_shots,omitempty"`
	// ReturnTrace asks for the request's span tree in Response.Trace.
	// Requests carrying a traceparent header get it implicitly.
	ReturnTrace bool `json:"return_trace,omitempty"`
}

// ParamsWire mirrors maskfrac.Params on the wire. Zero-valued fields
// inherit the server's defaults.
type ParamsWire struct {
	Sigma float64 `json:"sigma,omitempty"`
	Gamma float64 `json:"gamma,omitempty"`
	Rho   float64 `json:"rho,omitempty"`
	Pitch float64 `json:"pitch,omitempty"`
	Lmin  float64 `json:"lmin,omitempty"`
	Beta  float64 `json:"beta,omitempty"`
	Eta   float64 `json:"eta,omitempty"`
}

// OptionsWire mirrors maskfrac.Options on the wire.
type OptionsWire struct {
	MaxIterations  int    `json:"max_iterations,omitempty"`
	ColoringOrder  string `json:"coloring_order,omitempty"`
	SkipRefinement bool   `json:"skip_refinement,omitempty"`
}

// ItemResult is the outcome for one shape of a request, in input order.
type ItemResult struct {
	Index int          `json:"index"`
	Error string       `json:"error,omitempty"`
	Shots [][4]float64 `json:"shots,omitempty"`
	// LPairs lists L-shot pairs as {i, j} indices into Shots: each pair
	// is two rectangles exposed as one L-shaped flash sharing a dose.
	// Present only for L-capable methods ("mbf-l").
	LPairs    [][2]int `json:"l_pairs,omitempty"`
	ShotCount int      `json:"shot_count"`
	// FlashCount is the VSB flash count, ShotCount minus len(LPairs);
	// omitted when it equals ShotCount.
	FlashCount int     `json:"flash_count,omitempty"`
	FailOn     int     `json:"fail_on"`
	FailOff    int     `json:"fail_off"`
	Cost       float64 `json:"cost"`
	Feasible   bool    `json:"feasible"`
	CacheHit   bool    `json:"cache_hit"`
	SolveMS    float64 `json:"solve_ms"`
	EvalMS     float64 `json:"eval_ms"`
}

// Summary aggregates a response.
type Summary struct {
	Shapes int `json:"shapes"`
	Errors int `json:"errors"`
	Shots  int `json:"shots"`
	// Flashes is the batch's VSB flash total: Shots minus the L-shot
	// pairs of L-capable methods. Omitted when it equals Shots.
	Flashes   int `json:"flashes,omitempty"`
	Feasible  int `json:"feasible"`
	CacheHits int `json:"cache_hits"`
}

// Response is the POST /fracture reply.
type Response struct {
	Results []ItemResult `json:"results"`
	Summary Summary      `json:"summary"`
	// TraceID identifies the request's trace (retained on the server,
	// see GET /debug/traces/{id}); it matches the caller's trace ID when
	// the request carried a traceparent header.
	TraceID string `json:"trace_id,omitempty"`
	// Trace is the request's serialized span tree, present when the
	// request asked for it (ReturnTrace) or carried a traceparent.
	Trace *telemetry.SpanWire `json:"trace,omitempty"`
}

// SolveRequest is the POST /solve body: one multi-shape fracturing
// instance — typically a main feature plus its assist features — solved
// through the decompose–solve–stitch engine. Unlike /fracture, which
// treats each shape as an independent problem, /solve samples all
// shapes onto one grid sharing the dose budget, clusters them into
// proximity-independent regions and solves the regions concurrently.
type SolveRequest struct {
	// Shapes are the instance's polygons as [[x,y], ...] vertex lists.
	Shapes [][][2]float64 `json:"shapes"`
	// Method is the fracturing method (default "mbf").
	Method string `json:"method,omitempty"`
	// Params overrides the server's fracturing parameters.
	Params *ParamsWire `json:"params,omitempty"`
	// Options tunes the selected method.
	Options *OptionsWire `json:"options,omitempty"`
	// Workers caps the goroutines the solve runs on: regions solved
	// concurrently and, within a region, MBF's parallel deletion
	// trials, single-region instances included; 0 selects the server's
	// worker count. Workers never changes the solution.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS caps this request's wall time in milliseconds; 0
	// selects the server default. The server clamps it to its maximum.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// OmitShots drops the shot list from the response.
	OmitShots bool `json:"omit_shots,omitempty"`
	// IncludeQuality adds edge-placement-error and sliver statistics of
	// the merged shot list to the response.
	IncludeQuality bool `json:"include_quality,omitempty"`
	// ReturnTrace asks for the request's span tree in
	// SolveResponse.Trace. Requests carrying a traceparent header get it
	// implicitly.
	ReturnTrace bool `json:"return_trace,omitempty"`
}

// QualityWire carries optional solution-quality statistics: the edge
// placement error distribution sampled along the target boundaries and
// the shot sliver analysis.
type QualityWire struct {
	EPESamples int     `json:"epe_samples"`
	EPEMeanNM  float64 `json:"epe_mean_nm"`
	EPERMSNM   float64 `json:"epe_rms_nm"`
	EPEMaxNM   float64 `json:"epe_max_nm"` // worst absolute EPE
	EPEP95NM   float64 `json:"epe_p95_nm"` // 95th percentile of |EPE|
	Slivers    int     `json:"slivers"`    // shots thinner than Lmin
	MinShotDim float64 `json:"min_shot_dim_nm"`
	MeanAspect float64 `json:"mean_aspect"`
}

// SolveResponse is the POST /solve reply.
type SolveResponse struct {
	Shots [][4]float64 `json:"shots,omitempty"`
	// LPairs lists L-shot pairs of the merged shot list as {i, j}
	// index pairs (see ItemResult.LPairs). Present only for L-capable
	// methods ("mbf-l"). Pair indices refer to the full merged list
	// even when OmitShots drops the coordinates.
	LPairs    [][2]int `json:"l_pairs,omitempty"`
	ShotCount int      `json:"shot_count"`
	// FlashCount is the VSB flash count, ShotCount minus len(LPairs);
	// omitted when it equals ShotCount.
	FlashCount int `json:"flash_count,omitempty"`
	// Regions is the number of proximity-independent regions the
	// instance decomposed into.
	Regions  int          `json:"regions"`
	FailOn   int          `json:"fail_on"`
	FailOff  int          `json:"fail_off"`
	Cost     float64      `json:"cost"`
	Feasible bool         `json:"feasible"`
	SolveMS  float64      `json:"solve_ms"`
	EvalMS   float64      `json:"eval_ms"`
	Quality  *QualityWire `json:"quality,omitempty"`
	// TraceID and Trace mirror the /fracture response fields.
	TraceID string              `json:"trace_id,omitempty"`
	Trace   *telemetry.SpanWire `json:"trace,omitempty"`
}

// ErrorReply is the body of every non-2xx reply.
type ErrorReply struct {
	Error string `json:"error"`
}

// CacheStatsWire mirrors the shape-cache counters on the wire.
type CacheStatsWire struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	Coalesced  uint64 `json:"coalesced"` // hits served by a concurrent in-flight solve
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
	MaxEntries int    `json:"max_entries"`
}

// MethodStats aggregates completed work for one fracturing method.
type MethodStats struct {
	Count        uint64  `json:"count"`
	Errors       uint64  `json:"errors"`
	CacheHits    uint64  `json:"cache_hits"`
	Shots        uint64  `json:"shots"`
	TotalSolveMS float64 `json:"total_solve_ms"`
	AvgSolveMS   float64 `json:"avg_solve_ms"`
}

// StatsReply is the GET /stats body.
type StatsReply struct {
	UptimeSeconds float64                `json:"uptime_seconds"`
	Requests      uint64                 `json:"requests"`
	Rejected      uint64                 `json:"rejected"` // 429s from queue overflow
	Timeouts      uint64                 `json:"timeouts"` // per-request deadline expiries
	ShapesDone    uint64                 `json:"shapes_done"`
	QueueDepth    int                    `json:"queue_depth"`
	QueueCapacity int                    `json:"queue_capacity"`
	Workers       int                    `json:"workers"`
	Cache         CacheStatsWire         `json:"cache"`
	Methods       map[string]MethodStats `json:"methods"`
	// TopClasses is the cache's highest-placement congruence classes,
	// present when the request asked for them with ?classes=K. The
	// stencil planner mines these across the cluster.
	TopClasses []stencil.Class `json:"top_classes,omitempty"`
	// Inflight counts the HTTP requests being served, this one
	// included.
	Inflight int `json:"inflight"`
	// TracesRetained is the /debug/traces retention count.
	TracesRetained int `json:"traces_retained"`
	// P50MS/P99MS are request-latency quantiles over every endpoint,
	// estimated from the fracd_request_duration_seconds buckets.
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
}

// ClassUse credits one congruence class with placements the caller
// resolved without contacting the server: a batch client that memoizes
// congruent shapes locally reports the collapsed multiplicity here so
// the server's class statistics count placements, not wire requests.
type ClassUse struct {
	// Shape is a representative polygon of the class as a [[x,y], ...]
	// vertex list (any placement's polygon works — the server
	// canonicalizes it). The server derives the class key from it with
	// its own parameters, so the credit lands on the same record the
	// original solves created.
	Shape [][2]float64 `json:"shape"`
	// Uses is how many extra placements to credit.
	Uses uint64 `json:"uses"`
}

// ClassUsesRequest is the POST /stats/classes body. Method, Params and
// Options must match the fracture requests whose placements are being
// credited — they are part of the class key.
type ClassUsesRequest struct {
	Method  string       `json:"method,omitempty"`
	Params  *ParamsWire  `json:"params,omitempty"`
	Options *OptionsWire `json:"options,omitempty"`
	Classes []ClassUse   `json:"classes"`
}

// ClassUsesReply is the POST /stats/classes reply.
type ClassUsesReply struct {
	// Credited is the number of class records updated.
	Credited int `json:"credited"`
}

// CPWire overrides the server's default character-projection cost
// parameters for one /plan request. Zero-valued fields inherit
// writecost.Default(); LoadOverheadMS is a pointer so an explicit 0
// (no stencil mount cost — useful for small test masks) is
// distinguishable from unset.
type CPWire struct {
	ShotNS         float64  `json:"shot_ns,omitempty"`
	FlashNS        float64  `json:"flash_ns,omitempty"`
	Slots          int      `json:"slots,omitempty"`
	StencilW       float64  `json:"stencil_w,omitempty"`
	StencilH       float64  `json:"stencil_h,omitempty"`
	LoadOverheadMS *float64 `json:"load_overhead_ms,omitempty"`
}

// PlanRequest is the POST /plan body: plan a CP stencil from this
// node's class statistics.
type PlanRequest struct {
	// TopK bounds how many classes are mined as candidates (default
	// 256).
	TopK int `json:"top_k,omitempty"`
	// CP overrides the default cost-model CP parameters.
	CP *CPWire `json:"cp,omitempty"`
	// ReturnTrace asks for the planning span tree in the response.
	ReturnTrace bool `json:"return_trace,omitempty"`
}

// PlanResponse is the POST /plan reply.
type PlanResponse struct {
	Plan    *stencil.Plan       `json:"plan"`
	TraceID string              `json:"trace_id,omitempty"`
	Trace   *telemetry.SpanWire `json:"trace,omitempty"`
}
