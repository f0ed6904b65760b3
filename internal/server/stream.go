package server

import (
	"fmt"
	"net/http"

	"hetwire/internal/wire"
)

// handleStreamJob serves GET /v1/jobs/{id}/stream: the batch job's binary
// wire stream, emitted progressively. The batch header goes out immediately,
// each TypeScenario frame is relayed in canonical index order as soon as it
// is published (frames may complete out of order; the stream serialises
// them), and the trailer follows the last scenario. Frames are the exact
// bytes the job published — cache hits stream the stored result frame
// without any decode or re-simulation — and a job that ends early has filled
// its unresolved scenarios, so every index appears exactly once. A client
// disconnect ends only the response; the job keeps running on its worker and
// fills the cache.
func (s *Server) handleStreamJob(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(r.PathValue("id"))
	if job == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if job.progress == nil {
		httpError(w, http.StatusConflict, fmt.Errorf("job %s is a %s job; only batch jobs stream", job.ID, job.Kind))
		return
	}
	p := job.progress
	w.Header().Set("Content-Type", wire.ContentType)
	hdr, err := wire.AppendBatchHeader(nil, p.total())
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if _, err := w.Write(hdr); err != nil {
		return
	}
	flush(w)
	for i := 0; i < p.total(); i++ {
		fr := p.await(r.Context(), i)
		if fr == nil {
			return // client went away mid-stream; the job continues
		}
		if _, err := w.Write(fr); err != nil {
			return
		}
		flush(w)
	}
	// Every frame is published, so the running trailer is final.
	trailer, err := wire.AppendBatchTrailer(nil, p.counts())
	if err != nil {
		return
	}
	w.Write(trailer)
	flush(w)
}

// flush pushes buffered response bytes to the client, so streamed frames are
// observable before the job completes.
func flush(w http.ResponseWriter) {
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}
