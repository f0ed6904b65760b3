package server

import (
	"context"
	"fmt"
	"net/http"

	"hetwire/internal/wire"
)

// handleStreamJob serves GET /v1/jobs/{id}/stream: the batch job's binary
// wire stream, emitted progressively. The batch header goes out immediately,
// each TypeScenario frame is relayed in canonical index order as soon as
// that scenario resolves (frames may complete out of order; the stream
// serialises them), and the trailer follows the last scenario. Frames are
// the exact bytes the job published — cache hits stream the stored result
// frame without any decode or re-simulation. A client disconnect ends only
// the response; the job keeps running on its worker and fills the cache.
func (s *Server) handleStreamJob(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(r.PathValue("id"))
	if job == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if job.Kind != "batch" || job.progress == nil {
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
	var tr wire.BatchTrailer
	for i := 0; i < p.total(); i++ {
		fr, ok := awaitFrame(r, job, i)
		if !ok {
			return // client went away mid-stream; the job continues
		}
		if fr == nil {
			// The job reached a terminal state without resolving this
			// scenario (cancelled while still queued, or failed before the
			// batch ran). Synthesize a cancelled-scenario frame so every
			// expansion index still appears exactly once.
			fr, err = scenarioFrame(i, p.request(i), nil, false, context.Canceled)
			if err != nil {
				return
			}
		}
		if err := countScenario(&tr, fr); err != nil {
			return
		}
		if _, err := w.Write(fr); err != nil {
			return
		}
		flush(w)
	}
	trailer, err := wire.AppendBatchTrailer(nil, tr)
	if err != nil {
		return
	}
	w.Write(trailer)
	flush(w)
}

// awaitFrame blocks until scenario i's frame is published, the job turns
// terminal, or the client disconnects. It returns (frame, true) on a
// published frame, (nil, true) when the job terminated without one, and
// (nil, false) on client disconnect.
func awaitFrame(r *http.Request, job *Job, i int) ([]byte, bool) {
	p := job.progress
	for {
		// Acquire the notification channel BEFORE checking the frame: a
		// publish landing between the check and the wait closes exactly this
		// channel, so the streamer can never sleep through the frame it
		// waits for.
		ch := p.changed()
		if fr := p.frameAt(i); fr != nil {
			return fr, true
		}
		if job.State().Terminal() {
			// The final frames publish before the job turns terminal; the
			// frame check above may have raced ahead of the publication, so
			// look once more under the fresh channel.
			if fr := p.frameAt(i); fr != nil {
				return fr, true
			}
			return nil, true
		}
		select {
		case <-ch:
		case <-job.done:
		case <-r.Context().Done():
			return nil, false
		}
	}
}

// flush pushes buffered response bytes to the client, so streamed frames are
// observable before the job completes.
func flush(w http.ResponseWriter) {
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}
