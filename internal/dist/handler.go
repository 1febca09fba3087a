package dist

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Handler exposes the router over HTTP so remote clients (isoserve
// -connect) can drive the tier without linking it:
//
//	GET /mesh?step=S&iso=V  the routed mesh frame, relayed verbatim from
//	                        the buffer fetch verified it in — buffered whole,
//	                        because a relay that has started writing cannot
//	                        retry on the successor; X-Iso-Replica names the
//	                        shard that served it. 400 for an isovalue no key
//	                        holds (NaN, |iso| ≥ 2⁶³), asked of no replica
//	GET /healthz            200 while ≥1 replica is up
//	/metrics /statusz       the router's registry
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/mesh", func(w http.ResponseWriter, req *http.Request) {
		step, iso, err := parseMeshQuery(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		frame, route, err := rt.QueryBytes(req.Context(), step, iso)
		switch {
		case err == nil:
		case errors.Is(err, serve.ErrSaturated):
			retryAfter := 1
			var se *SaturatedError
			if errors.As(err, &se) && se.RetryAfter > 0 {
				retryAfter = int((se.RetryAfter + time.Second - 1) / time.Second)
			}
			w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		case errors.Is(err, serve.ErrIsovalue):
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		case req.Context().Err() != nil:
			return
		default:
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", MeshContentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
		w.Header().Set("X-Iso-Source", route.Source)
		w.Header().Set("X-Iso-Replica", route.Addr)
		w.Write(frame) //nolint:errcheck // client gone is the client's business
		rt.Recycle(frame)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		if rt.health.up() > 0 {
			w.Write([]byte("ok\n")) //nolint:errcheck
			return
		}
		http.Error(w, "no replicas up", http.StatusServiceUnavailable)
	})
	mux.Handle("/", obs.NewHandler(rt.reg))
	return mux
}
