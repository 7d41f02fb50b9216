// cas_serve — the network front-end: exposes the SolverService over a
// length-prefixed JSON protocol (see src/net/server.hpp for the frame
// grammar) from a single-threaded epoll/poll event loop. Solver work runs
// on the service's shared thread pool; the loop only moves bytes.
//
//   $ cas_serve --port=7077 --cache=256 --max-inflight=64 \
//               --shed-budget=30 --idle-timeout=60
//
// Overload defense is layered: connection admission (--max-connections),
// in-flight caps (--max-inflight), CostModel-priced load shedding
// (--shed-budget, rejects BEFORE queueing with the estimate attached),
// per-connection write backpressure, and idle harvesting. SIGTERM or a
// {"type":"drain"} frame triggers graceful drain: stop accepting, finish
// in-flight work, flush, exit 0.
//
// --port=0 binds an ephemeral port; --port-file writes the bound port for
// scripts (the CI loopback smoke leg) to pick up.
#include <cstdio>
#include <fstream>

#include "net/fault.hpp"
#include "net/server.hpp"
#include "util/flags.hpp"

using namespace cas;

int main(int argc, char** argv) {
  util::Flags flags(
      "cas_serve — event-loop network front-end for the solver service:\n"
      "length-prefixed JSON frames in, SolveReports out, with cost-priced\n"
      "load shedding, backpressure, and graceful drain.");
  flags.add_string("host", "127.0.0.1", "bind address (IPv4)");
  flags.add_int("port", 7077, "TCP port (0 = ephemeral; see --port-file)");
  flags.add_string("port-file", "", "write the bound port number to this file");
  flags.add_int("max-connections", 1024, "refuse connections beyond this many open");
  flags.add_int("max-inflight", 256, "reject solve frames beyond this many outstanding");
  flags.add_double("shed-budget", 0.0,
                   "reject requests whose estimated cost (fitted iterations to solution / this "
                   "host's measured iteration rate) exceeds this many walker-seconds, before "
                   "queueing (0 = no edge shedding)");
  flags.add_double("idle-timeout", 0.0, "close idle connections after this many seconds (0 = never)");
  flags.add_double("drain-timeout", 30.0, "force-close stragglers this long after drain starts");
  flags.add_int("max-frame", static_cast<long long>(net::kDefaultMaxFrame),
                "per-frame payload ceiling in bytes");
  flags.add_int("write-buffer-limit", 4 << 20,
                "per-connection outbuf bytes before backpressure pauses reads");
  flags.add_int("pool-threads", 0, "SolverService pool width (0 = hardware)");
  flags.add_int("cache", 256, "report-cache capacity in entries (0 = caching off)");
  flags.add_double("cache-ttl", 0.0, "report-cache TTL in seconds (0 = never expires)");
  flags.add_double("admit-budget", 0.0,
                   "service-level admission budget in walker-seconds, priced like "
                   "--shed-budget (0 = admit everything)");
  flags.add_bool("auto-calibrate", true, "refit the cost model from completed reports");
  flags.add_bool("stats", true, "print final server + service stats JSON to stderr on exit");
  if (!flags.parse(argc, argv)) return 0;

  net::ServerOptions opts;
  opts.host = flags.get_string("host");
  opts.port = static_cast<uint16_t>(flags.get_int("port"));
  opts.max_connections = static_cast<int>(flags.get_int("max-connections"));
  opts.max_inflight = static_cast<uint64_t>(flags.get_int("max-inflight"));
  opts.shed_budget_walker_seconds = flags.get_double("shed-budget");
  opts.idle_timeout_seconds = flags.get_double("idle-timeout");
  opts.drain_timeout_seconds = flags.get_double("drain-timeout");
  opts.max_frame_bytes = static_cast<size_t>(flags.get_int("max-frame"));
  opts.write_buffer_limit = static_cast<size_t>(flags.get_int("write-buffer-limit"));
  opts.service.pool_threads = static_cast<unsigned>(flags.get_int("pool-threads"));
  opts.service.cache_capacity = static_cast<size_t>(flags.get_int("cache"));
  opts.service.cache_ttl_seconds = flags.get_double("cache-ttl");
  opts.service.admission_budget_walker_seconds = flags.get_double("admit-budget");
  opts.service.auto_calibrate = flags.get_bool("auto-calibrate");

  // Deterministic wire-fault injection (chaos runs): inert unless
  // CAS_FAULT_PLAN is set in the environment.
  if (net::FaultInjector::arm_from_env())
    std::fprintf(stderr, "cas_serve: fault-injection layer ARMED from CAS_FAULT_PLAN\n");

  try {
    net::Server server(opts);
    server.install_signal_handlers();
    server.listen();
    if (!flags.get_string("port-file").empty()) {
      std::ofstream pf(flags.get_string("port-file"));
      pf << server.port() << "\n";
      if (!pf) {
        std::fprintf(stderr, "error: could not write %s\n", flags.get_string("port-file").c_str());
        return 2;
      }
    }
    std::fprintf(stderr, "cas_serve: listening on %s:%u (backend=%s, pool=%zu)\n",
                 opts.host.c_str(), unsigned{server.port()}, server.backend(),
                 server.service().pool().size());
    server.run();
    if (flags.get_bool("stats")) {
      util::Json j = util::Json::object();
      j["server"] = server.stats().to_json();
      j["service"] = server.service().stats().to_json();
      if (net::fault_armed()) j["faults"] = net::FaultInjector::stats().to_json();
      std::fprintf(stderr, "%s\n", j.dump(2).c_str());
    }
    std::fprintf(stderr, "cas_serve: drained, exiting\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}
