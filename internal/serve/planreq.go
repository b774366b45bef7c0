package serve

// Zero-allocation decoding of the POST /api/plan and /api/bulk/{rank,plan}
// request bodies. Both are tiny flat JSON objects with fixed key sets —
// the bulk shape is the plan shape without "region", plus a "top" count
// and two string arrays ("regions", "pipe_ids") — and the cached paths
// must not allocate, so one hand-rolled scanner handles the common shape
// (simple strings, plain numbers, string arrays) without touching the
// heap. Anything it is not absolutely sure about — escapes, non-ASCII
// strings, nested values, literals, exotic numbers, case-variant keys,
// malformed input — is declined, and the caller re-decodes the same
// bytes with its endpoint's encoding/json fallback (decodePlanSlow,
// decodeBulkSlow), so the accepted language and every error message are
// exactly the stdlib decoder's. The scanner's accept-set is a strict
// subset of the fallback's: it never admits a body encoding/json would
// reject, and it decodes to the same values.

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
)

// planFields is the decoded plan request: value fields plus presence
// flags instead of pointers, so the fast path fills it without
// allocating. model and region alias the request body buffer and are
// only valid while that buffer is.
type planFields struct {
	model    []byte
	region   []byte
	budgetKM float64
	maxPipes int

	inspPerKM float64
	failCost  float64
	maxSpend  float64
	hasInsp   bool
	hasFail   bool
	hasSpend  bool
}

// setPriced copies the optional priced parameters of a stdlib-decoded
// request, where nil means absent, into pf's presence-flag form.
func (pf *planFields) setPriced(insp, fail, spend *float64) {
	if insp != nil {
		pf.inspPerKM, pf.hasInsp = *insp, true
	}
	if fail != nil {
		pf.failCost, pf.hasFail = *fail, true
	}
	if spend != nil {
		pf.maxSpend, pf.hasSpend = *spend, true
	}
}

// parseRequestFast decodes data into pf and, on the bulk endpoints,
// into bulk, which is nil for /api/plan. Keys the endpoint's stdlib
// struct lacks ("region" on bulk; "top", "regions" and "pipe_ids" on
// plan) are skipped like any unknown key. It returns false when the
// body is outside its strict subset (including any malformed input),
// possibly after filling some fields; the caller must then reset them
// and re-decode with the endpoint's fallback — both for bodies the
// stdlib would accept and for its exact error text on ones it would
// not.
func parseRequestFast(data []byte, pf *planFields, bulk *bulkFields) bool {
	i := skipJSONSpace(data, 0)
	if i >= len(data) || data[i] != '{' {
		return false
	}
	i = skipJSONSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return true // empty object; trailing bytes ignored like json.Decoder
	}
	for {
		key, next, ok := scanJSONString(data, i)
		if !ok {
			return false
		}
		i = skipJSONSpace(data, next)
		if i >= len(data) || data[i] != ':' {
			return false
		}
		i = skipJSONSpace(data, i+1)
		if i >= len(data) {
			return false
		}
		// Each known key takes one value shape, and its scanner declines
		// any other — a type error or a null no-op is the stdlib's call.
		switch string(key) {
		case "model":
			pf.model, i, ok = scanJSONString(data, i)
		case "budget_km":
			pf.budgetKM, i, ok = scanJSONFloat(data, i)
		case "max_pipes":
			pf.maxPipes, i, ok = scanJSONInt(data, i)
		case "inspection_per_km":
			pf.inspPerKM, i, ok = scanJSONFloat(data, i)
			pf.hasInsp = true
		case "failure_cost":
			pf.failCost, i, ok = scanJSONFloat(data, i)
			pf.hasFail = true
		case "max_spend":
			pf.maxSpend, i, ok = scanJSONFloat(data, i)
			pf.hasSpend = true
		case "region":
			if bulk != nil {
				i, ok = skipJSONValue(data, i)
				break
			}
			pf.region, i, ok = scanJSONString(data, i)
		case "top":
			if bulk == nil {
				i, ok = skipJSONValue(data, i)
				break
			}
			bulk.top, i, ok = scanJSONInt(data, i)
			bulk.hasTop = true
		case "regions", "pipe_ids":
			if bulk == nil {
				i, ok = skipJSONValue(data, i)
				break
			}
			dst := &bulk.regions
			if key[0] == 'p' {
				dst = &bulk.pipeIDs
			}
			// A repeated key replaces the earlier array, matching the
			// stdlib's last-wins duplicate-key semantics.
			*dst = (*dst)[:0]
			i, ok = scanStringArray(data, i, dst)
		default:
			// encoding/json matches keys case-insensitively, so a key
			// that folds to a field name is not unknown to it.
			if foldsToRequestKey(key) {
				return false
			}
			i, ok = skipJSONValue(data, i)
		}
		if !ok {
			return false
		}
		i = skipJSONSpace(data, i)
		if i >= len(data) {
			return false
		}
		switch data[i] {
		case ',':
			i = skipJSONSpace(data, i+1)
		case '}':
			return true // trailing bytes ignored, matching json.Decoder
		default:
			return false
		}
	}
}

// requestKeys is every key the plan and bulk request structs declare.
var requestKeys = [...]string{"model", "region", "budget_km", "max_pipes",
	"inspection_per_km", "failure_cost", "max_spend", "top", "regions", "pipe_ids"}

// foldsToRequestKey reports whether key matches a request key when case
// is ignored. Keys are ASCII here (scanJSONString declines the rest), so
// ASCII case folding is exactly the stdlib's matching rule.
func foldsToRequestKey(key []byte) bool {
	for _, k := range requestKeys {
		if len(key) == len(k) && strings.EqualFold(string(key), k) {
			return true
		}
	}
	return false
}

// skipJSONValue steps over an unknown key's value when it is inside the
// subset: a simple string, a number or an array of simple strings.
func skipJSONValue(b []byte, i int) (next int, ok bool) {
	switch b[i] {
	case '"':
		_, next, ok = scanJSONString(b, i)
	case '[':
		next, ok = scanStringArray(b, i, nil)
	default:
		_, next, ok = scanJSONNumber(b, i)
	}
	return next, ok
}

// scanStringArray scans a JSON array of simple strings starting at the
// '[' in b[i], appending each element (aliasing b) to *dst, or only
// validating it when dst is nil. Anything but plain strings — escapes,
// numbers, nesting — is out of the subset.
func scanStringArray(b []byte, i int, dst *[][]byte) (next int, ok bool) {
	if i >= len(b) || b[i] != '[' {
		return 0, false
	}
	i = skipJSONSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return i + 1, true
	}
	for {
		val, n, ok := scanJSONString(b, i)
		if !ok {
			return 0, false
		}
		if dst != nil {
			*dst = append(*dst, val)
		}
		i = skipJSONSpace(b, n)
		if i >= len(b) {
			return 0, false
		}
		switch b[i] {
		case ',':
			i = skipJSONSpace(b, i+1)
		case ']':
			return i + 1, true
		default:
			return 0, false
		}
	}
}

func skipJSONSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanJSONString scans a double-quoted string starting at b[i],
// returning the unescaped content. Escapes, control bytes and non-ASCII
// are out of the subset (encoding/json replaces invalid UTF-8, which a
// byte alias cannot reproduce).
func scanJSONString(b []byte, i int) (val []byte, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	j := i + 1
	for j < len(b) {
		c := b[j]
		if c == '"' {
			return b[i+1 : j], j + 1, true
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return nil, 0, false
		}
		j++
	}
	return nil, 0, false
}

// scanJSONNumber scans a number token under the strict JSON grammar
// (no leading zeros, no bare '.', exponent needs digits).
func scanJSONNumber(b []byte, i int) (tok []byte, next int, ok bool) {
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	default:
		return nil, 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, 0, false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, 0, false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	return b[start:i], i, true
}

// scanJSONFloat scans a number token at b[i] and converts it for a
// float64 field.
func scanJSONFloat(b []byte, i int) (f float64, next int, ok bool) {
	tok, next, ok := scanJSONNumber(b, i)
	if !ok {
		return 0, 0, false
	}
	f, ok = parseJSONFloat(tok)
	return f, next, ok
}

// scanJSONInt scans a number token at b[i] and converts it for an int
// field.
func scanJSONInt(b []byte, i int) (n int, next int, ok bool) {
	tok, next, ok := scanJSONNumber(b, i)
	if !ok {
		return 0, 0, false
	}
	n, ok = parseJSONInt(tok)
	return n, next, ok
}

// parseJSONInt parses an integer token; fractions, exponents and
// overflow are outside the subset (the stdlib rejects them for int
// fields with its own message).
func parseJSONInt(tok []byte) (int, bool) {
	i, neg := 0, false
	if i < len(tok) && tok[i] == '-' {
		neg, i = true, 1
	}
	var n int64
	for ; i < len(tok); i++ {
		c := tok[i]
		if c < '0' || c > '9' {
			return 0, false // '.' or exponent: not an int literal
		}
		n = n*10 + int64(c-'0')
		if n > 1<<53 {
			return 0, false // defer giant values to the stdlib
		}
	}
	if neg {
		n = -n
	}
	return int(n), true
}

// parseJSONFloat converts a JSON number token exactly as
// strconv.ParseFloat would, allocation-free on the classic exact fast
// path: a mantissa of ≤ 15 digits and a decimal exponent within ±22
// are both exactly representable as float64s, so one multiply or
// divide is correctly rounded (Gay 1990; the same fast path strconv
// itself uses). Everything else takes one ParseFloat string allocation
// — off the zero-alloc path, but bit-identical.
func parseJSONFloat(tok []byte) (float64, bool) {
	i, neg := 0, false
	if i < len(tok) && tok[i] == '-' {
		neg, i = true, 1
	}
	var mant uint64
	digits := 0
	decExp := 0
	for ; i < len(tok); i++ {
		c := tok[i]
		if c >= '0' && c <= '9' {
			if digits >= 16 {
				return parseFloatSlow(tok)
			}
			if mant > 0 || c != '0' {
				mant = mant*10 + uint64(c-'0')
				digits++
			}
			continue
		}
		break
	}
	if i < len(tok) && tok[i] == '.' {
		i++
		for ; i < len(tok); i++ {
			c := tok[i]
			if c < '0' || c > '9' {
				break
			}
			if digits >= 16 {
				return parseFloatSlow(tok)
			}
			if mant > 0 || c != '0' {
				mant = mant*10 + uint64(c-'0')
				digits++
			}
			decExp--
		}
	}
	if i < len(tok) && (tok[i] == 'e' || tok[i] == 'E') {
		i++
		eneg := false
		if i < len(tok) && (tok[i] == '+' || tok[i] == '-') {
			eneg = tok[i] == '-'
			i++
		}
		e := 0
		for ; i < len(tok); i++ {
			e = e*10 + int(tok[i]-'0')
			if e > 400 {
				return parseFloatSlow(tok)
			}
		}
		if eneg {
			e = -e
		}
		decExp += e
	}
	if digits > 15 || decExp < -22 || decExp > 22 {
		return parseFloatSlow(tok)
	}
	f := float64(mant)
	switch {
	case decExp > 0:
		f *= pow10[decExp]
	case decExp < 0:
		f /= pow10[-decExp]
	}
	if neg {
		f = -f
	}
	return f, true
}

// pow10[i] = 10^i exactly, for 0 ≤ i ≤ 22 (the largest power of ten a
// float64 represents exactly).
var pow10 = [23]float64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

func parseFloatSlow(tok []byte) (float64, bool) {
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// planRequest is the encoding/json fallback shape of a plan request. It
// uses pointer fields for the priced parameters so "absent" (use the
// default) and "explicitly zero" (a client bug — zero-cost inspections,
// free failures or a zero spend cap price every plan nonsensically) are
// distinguishable.
type planRequest struct {
	Model           string   `json:"model"`
	Region          string   `json:"region"`
	BudgetKM        float64  `json:"budget_km"`
	MaxPipes        int      `json:"max_pipes"`
	InspectionPerKM *float64 `json:"inspection_per_km"`
	FailureCost     *float64 `json:"failure_cost"`
	MaxSpend        *float64 `json:"max_spend"`
}

// decodePlanSlow is the fallback decoder for plan bodies outside
// parseRequestFast's subset: full encoding/json semantics (and its exact
// error messages), converted into the same planFields shape.
func decodePlanSlow(data []byte, pf *planFields) error {
	var req planRequest
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
		return err
	}
	pf.model = []byte(req.Model)
	pf.region = []byte(req.Region)
	pf.budgetKM = req.BudgetKM
	pf.maxPipes = req.MaxPipes
	pf.setPriced(req.InspectionPerKM, req.FailureCost, req.MaxSpend)
	return nil
}
