// The write path: /insert, /delete and /update check their request's shape
// and hand one wal.Record to Collection.apply. The index checks the ranking
// (ranking.Check); a ranking it rejects is a 400.
package server

import (
	"errors"
	"fmt"
	"net/http"

	"topk/internal/invindex"
	"topk/internal/ranking"
	"topk/internal/wal"
)

// mutateRequest is the payload of /insert, /delete and /update. ID is a
// pointer so a missing field is distinguishable from id 0.
type mutateRequest struct {
	ID      *ranking.ID     `json:"id,omitempty"`
	Ranking ranking.Ranking `json:"ranking,omitempty"`
}

type mutateResponse struct {
	ID ranking.ID `json:"id"`
	N  int        `json:"n"`
}

// writeMutationError maps a mutation failure onto the endpoint contract: a
// ranking the index rejects is 400, as writeSearchError answers a rejected
// query; unknown or retired ids are 404; and only genuine internal failures
// surface as 500.
func writeMutationError(w http.ResponseWriter, verb string, err error) {
	switch {
	case errors.Is(err, ranking.ErrSizeMismatch), errors.Is(err, ranking.ErrDuplicateItem):
		httpError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, invindex.ErrUnknownID):
		httpError(w, http.StatusNotFound, "%v", err)
	default:
		httpError(w, http.StatusInternalServerError, "%s: %v", verb, err)
	}
}

// checkRanking rejects a mutation payload without a ranking; the index
// checks the ranking itself.
func checkRanking(w http.ResponseWriter, rk ranking.Ranking) bool {
	if rk == nil {
		httpError(w, http.StatusBadRequest, "missing \"ranking\"")
		return false
	}
	return true
}

func (s *Server) handleInsert(c *Collection, w http.ResponseWriter, r *http.Request) {
	var req mutateRequest
	if !s.decodeJSON(w, r, &req, false) {
		return
	}
	if req.ID != nil {
		httpError(w, http.StatusBadRequest, "\"id\" is not an insert field (use /update to replace)")
		return
	}
	if !checkRanking(w, req.Ranking) {
		return
	}
	mutate(c, w, "insert", wal.Record{Op: wal.OpInsert, Ranking: req.Ranking})
}

func (s *Server) handleDelete(c *Collection, w http.ResponseWriter, r *http.Request) {
	var req mutateRequest
	if !s.decodeJSON(w, r, &req, false) {
		return
	}
	if req.ID == nil {
		httpError(w, http.StatusBadRequest, "missing \"id\"")
		return
	}
	if req.Ranking != nil {
		httpError(w, http.StatusBadRequest, "\"ranking\" is not a delete field")
		return
	}
	mutate(c, w, "delete", wal.Record{Op: wal.OpDelete, ID: *req.ID})
}

func (s *Server) handleUpdate(c *Collection, w http.ResponseWriter, r *http.Request) {
	var req mutateRequest
	if !s.decodeJSON(w, r, &req, false) {
		return
	}
	if req.ID == nil {
		httpError(w, http.StatusBadRequest, "missing \"id\"")
		return
	}
	if !checkRanking(w, req.Ranking) {
		return
	}
	mutate(c, w, "update", wal.Record{Op: wal.OpUpdate, ID: *req.ID, Ranking: req.Ranking})
}

// mutate applies one validated mutation and acks it with the id it touched
// and the collection size after it.
func mutate(c *Collection, w http.ResponseWriter, verb string, rec wal.Record) {
	id, err := c.apply(rec)
	if err != nil {
		writeMutationError(w, verb, err)
		return
	}
	c.mutations.Add(1)
	writeJSON(w, http.StatusOK, mutateResponse{ID: id, N: c.idx.Len()})
}

// apply is the one mutation path: it applies rec to the index and, with
// durability on, logs the record before the caller acks. walMu spans
// apply+append so replay order matches ack order; an in-memory collection has
// no log order to protect and takes no lock here (the index synchronizes its
// own mutations). An insert's id is assigned by the index — rec.ID is ignored
// going in — and the id the record carries into the log is returned.
func (c *Collection) apply(rec wal.Record) (ranking.ID, error) {
	if c.wal != nil {
		c.walMu.Lock()
		defer c.walMu.Unlock()
	}
	var err error
	if rec.ID, err = applyRecord(c.idx, rec); err != nil {
		return 0, err
	}
	if c.wal == nil {
		return rec.ID, nil
	}
	if err := c.wal.Append(rec); err != nil {
		c.walFatal(err)
		return 0, err
	}
	return rec.ID, nil
}

// applyRecord applies one mutation record to idx — a live one from apply, a
// logged one from recoverWAL — and returns the id it touched: the id the
// index assigned to an insert, rec.ID otherwise.
func applyRecord(idx *invindex.Mutable, rec wal.Record) (ranking.ID, error) {
	switch rec.Op {
	case wal.OpInsert:
		return idx.Insert(rec.Ranking)
	case wal.OpDelete:
		return rec.ID, idx.Delete(rec.ID)
	case wal.OpUpdate:
		return rec.ID, idx.Update(rec.ID, rec.Ranking)
	}
	return 0, fmt.Errorf("unknown mutation op %d", rec.Op)
}
