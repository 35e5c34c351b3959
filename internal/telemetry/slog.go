package telemetry

import (
	"context"
	"io"
	"log/slog"
)

// JSONLogger returns a log/slog logger writing one JSON object per
// record to w (keys time, level, msg, then the attributes), dropping
// records below level.
func JSONLogger(w io.Writer, level slog.Leveler) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
}

// DiscardLogger returns a logger whose handler is disabled at every
// level, so a call site pays only the Enabled check: no record is
// built and no attribute is formatted.
func DiscardLogger() *slog.Logger { return slog.New(discardHandler{}) }

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
