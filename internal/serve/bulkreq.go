package serve

// Decoding of the POST /api/bulk/{rank,plan} request bodies. The shape
// is the plan request without "region", plus a "top" count and two
// string arrays ("regions", "pipe_ids"). parseRequestFast (planreq.go)
// decodes the common shape without touching the heap — the region/pipe
// slices alias the pooled body buffer and their backing arrays are
// recycled with the bulkScratch — and anything outside its strict subset
// falls back to decodeBulkSlow over the same bytes for stdlib semantics
// and error text.

import (
	"bytes"
	"encoding/json"
)

// bulkFields is the bulk-only part of a decoded bulk request; the model
// and the bulk-plan pricing fields decode into a planFields alongside
// it. regions/pipeIDs alias the request body buffer and are only valid
// while that buffer is.
type bulkFields struct {
	top     int
	hasTop  bool
	regions [][]byte
	pipeIDs [][]byte
}

// reset clears the fields while keeping the slice capacity for reuse.
func (bf *bulkFields) reset() {
	bf.top = 0
	bf.hasTop = false
	bf.regions = bf.regions[:0]
	bf.pipeIDs = bf.pipeIDs[:0]
}

// bulkRequest is the encoding/json fallback shape for the bulk
// endpoints. Top is a pointer so "explicitly 0" (a client bug) and
// "absent" (use the default) stay distinguishable, mirroring the priced
// plan parameters.
type bulkRequest struct {
	Model           string   `json:"model"`
	Top             *int     `json:"top"`
	Regions         []string `json:"regions"`
	PipeIDs         []string `json:"pipe_ids"`
	BudgetKM        float64  `json:"budget_km"`
	MaxPipes        int      `json:"max_pipes"`
	InspectionPerKM *float64 `json:"inspection_per_km"`
	FailureCost     *float64 `json:"failure_cost"`
	MaxSpend        *float64 `json:"max_spend"`
}

// decodeBulkSlow is the fallback decoder for bulk bodies outside
// parseRequestFast's subset: full encoding/json semantics (and its exact
// error messages), converted into the same planFields and bulkFields
// shape.
func decodeBulkSlow(data []byte, pf *planFields, bf *bulkFields) error {
	var req bulkRequest
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
		return err
	}
	pf.model = []byte(req.Model)
	pf.budgetKM = req.BudgetKM
	pf.maxPipes = req.MaxPipes
	pf.setPriced(req.InspectionPerKM, req.FailureCost, req.MaxSpend)
	if req.Top != nil {
		bf.top, bf.hasTop = *req.Top, true
	}
	for _, r := range req.Regions {
		bf.regions = append(bf.regions, []byte(r))
	}
	for _, id := range req.PipeIDs {
		bf.pipeIDs = append(bf.pipeIDs, []byte(id))
	}
	return nil
}
