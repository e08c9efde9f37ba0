package server

import (
	"context"
	"errors"
	"net/http"

	"certsql/internal/certain"
	"certsql/internal/guard"
	"certsql/internal/table"
)

// statusClientClosedRequest is the de-facto standard status (nginx's
// 499) for a request whose client went away before the response: the
// guard reports it as ErrCanceled, and no IANA status fits.
const statusClientClosedRequest = 499

// statusFor maps the engine's error taxonomy onto HTTP statuses and
// machine-readable codes. The switch names every guard sentinel
// individually — including each member under the ErrBudget umbrella —
// and tools/astlint enforces that it stays exhaustive as sentinels are
// added, so a future failure mode can never silently fall through to
// the catch-all. The ErrBudget case itself remains as the safety net
// for an unnamed budget sentinel: resource exhaustion must never be
// reported as a client error.
func statusFor(err error) (status int, code string) {
	var internal *guard.InternalError
	var notNull *table.NotNullViolation
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, "queue-full"
	case errors.Is(err, guard.ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout, "deadline"
	case errors.Is(err, guard.ErrCanceled), errors.Is(err, context.Canceled):
		return statusClientClosedRequest, "canceled"
	case errors.Is(err, certain.ErrUntranslatable):
		return http.StatusUnprocessableEntity, "untranslatable"
	case errors.As(err, &notNull):
		return http.StatusUnprocessableEntity, "not-null"
	case errors.Is(err, guard.ErrMemBudget):
		return http.StatusInsufficientStorage, "mem-budget"
	case errors.Is(err, guard.ErrRowBudget):
		return http.StatusInsufficientStorage, "row-budget"
	case errors.Is(err, guard.ErrCostBudget):
		return http.StatusInsufficientStorage, "cost-budget"
	case errors.Is(err, guard.ErrBudget):
		return http.StatusInsufficientStorage, "budget"
	case errors.As(err, &internal):
		return http.StatusInternalServerError, "internal"
	default:
		return http.StatusBadRequest, "bad-request"
	}
}
