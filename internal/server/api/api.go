// Package api defines the JSON wire format of the certsqld serving
// layer: request and response shapes for the /v1 endpoints and the
// value codec shared by the server and the typed client.
//
// Database entries travel as JSON scalars where JSON has a faithful
// representation, and as small tagged objects where it does not:
//
//	int, float  -> JSON number
//	string      -> JSON string
//	bool        -> JSON bool
//	date        -> {"date": "YYYY-MM-DD"}
//	marked null -> {"null": <mark>}
//
// Marked nulls keep their marks across the wire, so a client can
// observe that two positions hold the *same* unknown value — the
// paper's marked-null model survives serialization. Decoding accepts
// json.Number (the client and server both decode with UseNumber, so
// 64-bit integers round-trip exactly) as well as float64 for callers
// using plain json.Unmarshal.
package api

import (
	"encoding/json"
	"fmt"
	"strings"

	"certsql/internal/compile"
	"certsql/internal/value"
)

// QueryRequest is the body of POST /v1/query: one ad-hoc statement.
type QueryRequest struct {
	// SQL is the statement text; SELECT CERTAIN / SELECT POSSIBLE are
	// honored exactly as in the library API.
	SQL string `json:"sql"`
	// Params binds $name parameters (wire-encoded values; lists for
	// IN-list parameters).
	Params map[string]any `json:"params,omitempty"`
	// Mode optionally forces the evaluation mode ("certain",
	// "possible", "standard"), overriding the keyword in the text.
	Mode string `json:"mode,omitempty"`
	// Session names the session catalog to run against; empty means
	// the default session.
	Session string `json:"session,omitempty"`
	// Options carries per-request governance overrides.
	Options QueryOptions `json:"options,omitempty"`
}

// QueryOptions are the per-request governance and executor overrides.
// Zero values inherit the server's configured defaults; the server
// clamps every budget to its own ceiling, so a request can tighten but
// never loosen the server's limits.
type QueryOptions struct {
	// MaxRows bounds materialized intermediate results, in rows.
	MaxRows int `json:"max_rows,omitempty"`
	// MaxCostUnits bounds cumulative elementary row operations.
	MaxCostUnits int64 `json:"max_cost_units,omitempty"`
	// MaxMemBytes bounds estimated bytes of materialized results.
	MaxMemBytes int64 `json:"max_mem_bytes,omitempty"`
	// TimeoutMillis bounds wall-clock evaluation time.
	TimeoutMillis int64 `json:"timeout_millis,omitempty"`
	// Degrade opts into the degrade-to-certain ladder for
	// potential-answer queries that trip a budget.
	Degrade bool `json:"degrade,omitempty"`
}

// QueryResponse is the result of /v1/query and /v1/execute.
type QueryResponse struct {
	Columns []string `json:"columns"`
	// Rows are wire-encoded result rows (see the package comment).
	Rows [][]any `json:"rows"`
	// Certain / Possible / Degraded mirror certsql.Result.
	Certain  bool      `json:"certain,omitempty"`
	Possible bool      `json:"possible,omitempty"`
	Degraded bool      `json:"degraded,omitempty"`
	Warnings []Warning `json:"warnings,omitempty"`
	// Version is the catalog snapshot version the query ran against.
	Version uint64 `json:"version"`
	Stats   Stats  `json:"stats"`
}

// Warning mirrors certsql.Warning.
type Warning struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Stats carries the execution counters a client can dispatch on.
type Stats struct {
	CostUnits       int64 `json:"cost_units,omitempty"`
	NestedLoopJoins int   `json:"nested_loop_joins,omitempty"`
	HashJoins       int   `json:"hash_joins,omitempty"`
	UnifyJoins      int   `json:"unify_joins,omitempty"`
	ShortCircuits   int   `json:"short_circuits,omitempty"`
	CacheHits       int   `json:"cache_hits,omitempty"`
	FastPathHits    int   `json:"fast_path_hits,omitempty"`
	PlanCacheHits   int   `json:"plan_cache_hits,omitempty"`
	PlanCacheMisses int   `json:"plan_cache_misses,omitempty"`
	// MemHighWaterBytes is the execution's peak estimated intermediate
	// memory, as charged to the request's resource governor.
	MemHighWaterBytes int64 `json:"mem_highwater_bytes,omitempty"`
}

// PrepareRequest is the body of POST /v1/prepare.
type PrepareRequest struct {
	SQL string `json:"sql"`
	// Mode optionally forces the evaluation mode before preparing.
	Mode    string `json:"mode,omitempty"`
	Session string `json:"session,omitempty"`
}

// PrepareResponse names the server-side prepared statement.
type PrepareResponse struct {
	// ID is the handle /v1/execute takes.
	ID string `json:"id"`
	// SQL is the canonical statement text the server prepared.
	SQL string `json:"sql"`
	// Mode is the evaluation mode baked into the statement.
	Mode string `json:"mode"`
	// Explain is the cost-based planner's EXPLAIN of the statement as
	// prepared (no parameter binding), against the catalog snapshot
	// current at prepare time. Empty for statements that cannot be
	// planned without parameters; executions against later snapshots
	// may plan differently.
	Explain string `json:"explain,omitempty"`
}

// ExecuteRequest is the body of POST /v1/execute.
type ExecuteRequest struct {
	ID      string         `json:"id"`
	Params  map[string]any `json:"params,omitempty"`
	Session string         `json:"session,omitempty"`
	Options QueryOptions   `json:"options,omitempty"`
}

// LoadRequest is the body of POST /v1/load: rows to append to one
// table of the session catalog. The load publishes a new snapshot —
// concurrent readers keep their version; cached plans for older
// versions miss from then on.
type LoadRequest struct {
	Table   string  `json:"table"`
	Rows    [][]any `json:"rows"`
	Session string  `json:"session,omitempty"`
}

// LoadResponse reports the snapshot version the load published.
type LoadResponse struct {
	Version uint64 `json:"version"`
	Rows    int    `json:"rows"`
}

// CatalogResponse describes the session catalog at its current version.
type CatalogResponse struct {
	Version uint64      `json:"version"`
	Tables  []TableInfo `json:"tables"`
}

// TableInfo describes one relation.
type TableInfo struct {
	Name    string       `json:"name"`
	Rows    int          `json:"rows"`
	Columns []ColumnInfo `json:"columns"`
}

// ColumnInfo describes one attribute, including the planner's current
// statistics for it.
type ColumnInfo struct {
	Name     string `json:"name"`
	Type     string `json:"type"`
	Nullable bool   `json:"nullable"`
	// NullRate is the fraction of rows whose value is a marked null
	// (0 on an empty table).
	NullRate float64 `json:"null_rate"`
	// Distinct estimates the number of distinct non-null values;
	// DistinctExact reports whether it is an exact count rather than a
	// sketch estimate.
	Distinct      int64 `json:"distinct"`
	DistinctExact bool  `json:"distinct_exact"`
}

// Error is the body of every non-2xx response.
type Error struct {
	// Status is the HTTP status the server sent.
	Status int `json:"status"`
	// Code is the machine-readable cause ("queue-full", "deadline",
	// "canceled", "untranslatable", "budget", "mem-budget", …).
	Code string `json:"code"`
	// Message is the human-readable explanation.
	Message string `json:"message"`
}

func (e *Error) Error() string {
	return fmt.Sprintf("certsqld: %s (http %d): %s", e.Code, e.Status, e.Message)
}

// EncodeValue renders one database value in the wire encoding.
func EncodeValue(v value.Value) any {
	switch v.Kind() {
	case value.KindNull:
		return map[string]any{"null": v.NullID()}
	case value.KindDate:
		return map[string]any{"date": v.String()}
	case value.KindInt:
		return v.AsInt()
	case value.KindFloat:
		return v.AsFloat()
	case value.KindString:
		return v.AsString()
	case value.KindBool:
		return v.AsBool()
	default:
		return v.String()
	}
}

// EncodeRow renders one result row.
func EncodeRow(row []value.Value) []any {
	out := make([]any, len(row))
	for i, v := range row {
		out[i] = EncodeValue(v)
	}
	return out
}

// EncodeRows renders a whole result.
func EncodeRows(rows [][]value.Value) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		out[i] = EncodeRow(r)
	}
	return out
}

// DecodeValue parses one wire-encoded value. It accepts the output of
// json.Unmarshal both with and without UseNumber; integers decoded as
// float64 are accepted when exact.
func DecodeValue(raw any) (value.Value, error) {
	switch raw := raw.(type) {
	case nil:
		return value.Value{}, fmt.Errorf("api: bare JSON null is not a value; marked nulls are {\"null\": mark}")
	case bool:
		return value.Bool(raw), nil
	case string:
		return value.Str(raw), nil
	case json.Number:
		return decodeNumber(raw)
	case float64:
		if i := int64(raw); float64(i) == raw && !strings.ContainsAny(fmt.Sprint(raw), ".eE") {
			return value.Int(i), nil
		}
		return value.Float(raw), nil
	case map[string]any:
		if len(raw) != 1 {
			return value.Value{}, fmt.Errorf("api: tagged value must have exactly one key, got %d", len(raw))
		}
		if d, ok := raw["date"]; ok {
			s, ok := d.(string)
			if !ok {
				return value.Value{}, fmt.Errorf("api: date tag wants a string, got %T", d)
			}
			v, err := value.ParseDate(s)
			if err != nil {
				return value.Value{}, fmt.Errorf("api: bad date %q: %v", s, err)
			}
			return v, nil
		}
		if n, ok := raw["null"]; ok {
			id, err := decodeInt(n)
			if err != nil {
				return value.Value{}, fmt.Errorf("api: bad null mark: %v", err)
			}
			return value.Null(id), nil
		}
		return value.Value{}, fmt.Errorf("api: unknown value tag in %v", raw)
	default:
		return value.Value{}, fmt.Errorf("api: unsupported wire value of type %T", raw)
	}
}

func decodeNumber(n json.Number) (value.Value, error) {
	if !strings.ContainsAny(n.String(), ".eE") {
		if i, err := n.Int64(); err == nil {
			return value.Int(i), nil
		}
	}
	f, err := n.Float64()
	if err != nil {
		return value.Value{}, fmt.Errorf("api: bad number %q: %v", n, err)
	}
	return value.Float(f), nil
}

func decodeInt(raw any) (int64, error) {
	switch raw := raw.(type) {
	case json.Number:
		return raw.Int64()
	case float64:
		i := int64(raw)
		if float64(i) != raw {
			return 0, fmt.Errorf("not an integer: %v", raw)
		}
		return i, nil
	default:
		return 0, fmt.Errorf("not a number: %T", raw)
	}
}

// DecodeRow parses one wire-encoded row.
func DecodeRow(raw []any) ([]value.Value, error) {
	out := make([]value.Value, len(raw))
	for i, rv := range raw {
		v, err := DecodeValue(rv)
		if err != nil {
			return nil, fmt.Errorf("column %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// DecodeParams turns wire-encoded parameters into a binding the
// compiler accepts. Scalars decode to values; JSON arrays decode to
// IN-list bindings.
func DecodeParams(raw map[string]any) (compile.Params, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	out := make(compile.Params, len(raw))
	for name, rv := range raw {
		if list, ok := rv.([]any); ok {
			vals := make([]value.Value, len(list))
			for i, item := range list {
				v, err := DecodeValue(item)
				if err != nil {
					return nil, fmt.Errorf("api: parameter $%s[%d]: %w", name, i, err)
				}
				vals[i] = v
			}
			out[name] = vals
			continue
		}
		v, err := DecodeValue(rv)
		if err != nil {
			return nil, fmt.Errorf("api: parameter $%s: %w", name, err)
		}
		out[name] = v
	}
	return out, nil
}

// EncodeParams renders a compiler parameter binding in the wire
// encoding; it accepts every kind compile.Params documents.
func EncodeParams(params compile.Params) (map[string]any, error) {
	if len(params) == 0 {
		return nil, nil
	}
	out := make(map[string]any, len(params))
	for name, raw := range params {
		switch raw := raw.(type) {
		case value.Value:
			out[name] = EncodeValue(raw)
		case []value.Value:
			list := make([]any, len(raw))
			for i, v := range raw {
				list[i] = EncodeValue(v)
			}
			out[name] = list
		case string, bool, int64, float64:
			out[name] = raw
		case int:
			out[name] = int64(raw)
		case []int64:
			list := make([]any, len(raw))
			for i, v := range raw {
				list[i] = v
			}
			out[name] = list
		case []int:
			list := make([]any, len(raw))
			for i, v := range raw {
				list[i] = int64(v)
			}
			out[name] = list
		case []string:
			list := make([]any, len(raw))
			for i, v := range raw {
				list[i] = v
			}
			out[name] = list
		default:
			return nil, fmt.Errorf("api: parameter $%s has unsupported type %T", name, raw)
		}
	}
	return out, nil
}
