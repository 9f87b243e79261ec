#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <unordered_map>

#include "common/clock.h"
#include "common/rng.h"
#include "serve/protocol.h"

namespace perfbench {

using star::NowNanos;
using star::Rng;
using star::StarEngine;
using star::TxnStatus;
namespace proto = star::serve;

const char* ClassName(int cls) {
  switch (cls) {
    case kRead: return "read";
    case kWrite: return "write";
    case kCross: return "cross";
  }
  return "?";
}

void ClassCounts::Add(const ClassCounts& o) {
  offered += o.offered;
  ok += o.ok;
  resent += o.resent;
  shed_replies += o.shed_replies;
  aborted += o.aborted;
  rollback += o.rollback;
  shed += o.shed;
  retry += o.retry;
  bad += o.bad;
  lost += o.lost;
}

void WindowStats::Add(const WindowStats& o) {
  for (int c = 0; c < kClasses; ++c) {
    counts[c].Add(o.counts[c]);
    latency[c].Append(o.latency[c]);
  }
  late.Append(o.late);
}

int Schedule::WindowOf(uint64_t t) const {
  if (t < measure_start_ns()) return 0;
  if (t >= end_ns()) return -1;
  return first + static_cast<int>((t - measure_start_ns()) / window_ns);
}

namespace {

/// Sleep granularity matters at 20k arrivals/s: the default 50 us timer
/// slack would make every wake-up up to 50 us late.
void TightenTimerSlack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

uint64_t ExpGap(Rng& rng, double mean_gap_ns) {
  double u = rng.NextDouble();
  return static_cast<uint64_t>(-std::log(1.0 - u) * mean_gap_ns);
}

/// Blocks until `deadline_ns` (steady clock) or until one of `fds` is
/// ready, whichever comes first.
void WaitUntil(uint64_t deadline_ns, pollfd* fds, nfds_t nfds) {
  uint64_t now = NowNanos();
  if (deadline_ns <= now) return;
  uint64_t d = deadline_ns - now;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(d / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(d % 1'000'000'000ull);
  ::ppoll(fds, nfds, &ts, nullptr);
}

const char* const kClientSpan[kClasses] = {"client.read", "client.write",
                                           "client.cross"};
const char* const kClientFailedSpan[kClasses] = {
    "client.read.failed", "client.write.failed", "client.cross.failed"};
const char* const kDirectSpan[kClasses] = {"core.direct.read",
                                           "core.direct.write",
                                           "core.direct.cross"};

uint32_t ProcOf(int cls) {
  switch (cls) {
    case kRead: return star::serve::ProcRegistry::kReadOnly;
    case kCross: return star::serve::ProcRegistry::kCross;
    default: return star::serve::ProcRegistry::kSingle;
  }
}

/// Wait before the next send of a request refused after `sends` sends:
/// `hint_ns` (a shed's queue-wait estimate, else 0) clamped to [1, 50] ms,
/// doubled per send made, at most 50 ms, times a jitter in [0.5, 1.5).
/// serve::LoadGenOptions' defaults.
uint64_t BackoffNs(uint64_t hint_ns, int sends, double jitter01) {
  constexpr double kMinMs = 1.0;
  constexpr double kMaxMs = 50.0;
  double ms = std::clamp(static_cast<double>(hint_ns) / 1e6, kMinMs, kMaxMs);
  ms = std::min(ms * static_cast<double>(1u << std::min(sends - 1, 6)),
                kMaxMs);
  return static_cast<uint64_t>(ms * 1e6 * (0.5 + jitter01));
}

}  // namespace

// --- DirectSink -------------------------------------------------------------

DirectSink::DirectSink(const Schedule* schedule, Tracer* tracer)
    : schedule_(schedule),
      tracer_(tracer),
      windows_(static_cast<size_t>(schedule->total) + 1) {}

void DirectSink::Submit(StarEngine* engine,
                        const star::serve::ProcRegistry& registry,
                        uint32_t proc, int cls, uint64_t seed, int partition,
                        uint64_t sched_ns, bool wait_durable) {
  int w = schedule_->WindowOf(sched_ns);
  if (w < 0) return;
  auto* t = new StarEngine::ExternalTxn();
  bool made = registry.Make(proc, seed, partition,
                            engine->options().cluster.num_partitions(),
                            &t->req);
  uint64_t now = NowNanos();
  {
    std::lock_guard<std::mutex> g(mu_);
    WindowStats& ws = windows_[static_cast<size_t>(w)];
    ++ws.counts[cls].offered;
    ws.late.Add(now > sched_ns ? now - sched_ns : 0);
    if (!made) ++ws.counts[cls].bad;
  }
  if (!made) {
    delete t;
    return;
  }
  t->submit_ns = sched_ns;  // the engine's own latency clock starts here too
  t->wait_durable = wait_durable;
  t->done = &DirectSink::OnDone;
  t->owner = this;
  t->tag0 = next_request_.fetch_add(1, std::memory_order_relaxed);
  t->tag1 = now;
  t->tag2 = static_cast<uint64_t>(cls) | (static_cast<uint64_t>(w) << 8) |
            (uint64_t{1} << 32);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (!engine->SubmitExternal(t)) {
    std::lock_guard<std::mutex> g(mu_);
    if (!QueueRetryLocked(t, now)) {
      FinishLocked(t, TxnStatus::kAbortNetwork, now);
    }
  }
}

bool DirectSink::QueueRetryLocked(StarEngine::ExternalTxn* t, uint64_t now) {
  int sends = static_cast<int>(t->tag2 >> 32);
  Rng jitter(t->tag0 * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(sends));
  uint64_t due = now + BackoffNs(0, sends, jitter.NextDouble());
  if (due >= t->submit_ns + kRetryBudgetNs) return false;
  int cls = static_cast<int>(t->tag2 & 0xff);
  int w = static_cast<int>((t->tag2 >> 8) & 0xffffff);
  ++windows_[static_cast<size_t>(w)].counts[cls].resent;
  retries_.push_back({due, t});
  return true;
}

void DirectSink::FinishLocked(StarEngine::ExternalTxn* t, TxnStatus status,
                              uint64_t now) {
  int cls = static_cast<int>(t->tag2 & 0xff);
  int w = static_cast<int>((t->tag2 >> 8) & 0xffffff);
  uint64_t sched = t->submit_ns;
  uint64_t request = t->tag0;
  delete t;
  WindowStats& ws = windows_[static_cast<size_t>(w)];
  ClassCounts& c = ws.counts[cls];
  switch (status) {
    case TxnStatus::kCommitted:
      ++c.ok;
      ws.latency[cls].Add(now - sched);
      break;
    case TxnStatus::kAbortConflict: ++c.aborted; break;
    case TxnStatus::kAbortUser: ++c.rollback; break;
    default: ++c.retry; break;  // refused every time, or failed at shutdown
  }
  if (schedule_->Traced(w) && tracer_ != nullptr) {
    Span s;
    s.id = tracer_->NextId();
    s.request = request;
    s.start_ns = sched;
    s.end_ns = now;
    s.name = kDirectSpan[cls];
    spans_.push_back(s);
  }
  completed_.fetch_add(1, std::memory_order_release);
}

void DirectSink::OnDone(StarEngine::ExternalTxn* t, TxnStatus status,
                        uint64_t epoch) {
  (void)epoch;
  uint64_t now = NowNanos();
  auto* self = static_cast<DirectSink*>(t->owner);
  std::lock_guard<std::mutex> g(self->mu_);
  if (status == TxnStatus::kAbortConflict && self->QueueRetryLocked(t, now)) {
    return;
  }
  self->FinishLocked(t, status, now);
}

void DirectSink::ServiceRetries(StarEngine* engine) {
  std::vector<StarEngine::ExternalTxn*> due;
  uint64_t now = NowNanos();
  {
    std::lock_guard<std::mutex> g(mu_);
    for (size_t i = 0; i < retries_.size();) {
      if (retries_[i].due_ns > now) {
        ++i;
        continue;
      }
      due.push_back(retries_[i].txn);
      retries_[i] = retries_.back();
      retries_.pop_back();
    }
  }
  for (StarEngine::ExternalTxn* t : due) {
    t->tag2 += uint64_t{1} << 32;
    if (!engine->SubmitExternal(t)) {
      std::lock_guard<std::mutex> g(mu_);
      if (!QueueRetryLocked(t, now)) {
        FinishLocked(t, TxnStatus::kAbortNetwork, now);
      }
    }
  }
}

void DirectSink::RunProbes(StarEngine* engine,
                           const star::serve::ProcRegistry& registry,
                           double rate, double cross_share, int partitions,
                           uint64_t seed) {
  TightenTimerSlack();
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 77);
  double mean_gap_ns = 1e9 / rate;
  uint64_t end = schedule_->end_ns();
  uint64_t next = schedule_->start_ns + ExpGap(rng, mean_gap_ns);
  while (next < end) {
    WaitUntil(next, nullptr, 0);
    ServiceRetries(engine);
    if (NowNanos() < next) continue;
    int cls = rng.Flip(cross_share) ? kCross : kWrite;
    int partition = static_cast<int>(rng.Uniform(partitions));
    Submit(engine, registry, ProcOf(cls), cls, rng.Next(), partition, next,
           /*wait_durable=*/false);
    next += ExpGap(rng, mean_gap_ns);
  }
}

bool DirectSink::WaitIdle(StarEngine* engine, double timeout_s) {
  uint64_t deadline = NowNanos() + static_cast<uint64_t>(timeout_s * 1e9);
  while (completed_.load(std::memory_order_acquire) <
         submitted_.load(std::memory_order_relaxed)) {
    if (NowNanos() >= deadline) return false;
    ServiceRetries(engine);
    ::usleep(1000);
  }
  return true;
}

std::vector<WindowStats> DirectSink::TakeWindows() {
  std::lock_guard<std::mutex> g(mu_);
  if (tracer_ != nullptr) tracer_->Merge(std::move(spans_));
  return std::move(windows_);
}

// --- OpenLoopClient -------------------------------------------------------

struct OpenLoopClient::Conn {
  struct Pending {
    uint64_t sched = 0;  // scheduled arrival
    uint64_t sent = 0;   // first send
    int cls = 0;
    int window = 0;
    int sends = 0;
    uint32_t partition = 0;
    uint64_t seed = 0;
    uint64_t ClassCounts::*last = nullptr;  // outcome of the last answer
  };

  int fd = -1;
  uint64_t session = 0;
  uint64_t span_base = 0;  // request ids in spans: span_base | local id
  uint64_t next_request = 1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  std::unordered_map<uint64_t, Pending> outstanding;

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }

  bool Flush() {
    while (out_off < out.size()) {
      ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off,
                         MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }
    return true;
  }
};

OpenLoopClient::OpenLoopClient(const ClientOptions& opts, StarEngine* engine,
                               const star::serve::ProcRegistry* registry,
                               DirectSink* sink, Tracer* tracer)
    : opts_(opts),
      engine_(engine),
      registry_(registry),
      sink_(sink),
      tracer_(tracer) {}

OpenLoopClient::~OpenLoopClient() = default;

bool OpenLoopClient::Connect(double timeout_s) {
  uint64_t deadline = NowNanos() + static_cast<uint64_t>(timeout_s * 1e9);
  int total = opts_.threads * opts_.conns_per_thread;
  for (int i = 0; i < total; ++i) {
    auto c = std::make_unique<Conn>();
    c->span_base = static_cast<uint64_t>(i + 1) << 40;
    c->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c->fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(opts_.port);
    if (::connect(c->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      return false;
    }
    int one = 1;
    ::setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    proto::FrameHeader hello;
    hello.type = static_cast<uint16_t>(proto::FrameType::kHello);
    char hdr[proto::kHeaderSize];
    proto::EncodeHeader(hdr, hello);
    if (::send(c->fd, hdr, sizeof(hdr), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(sizeof(hdr))) {
      return false;
    }
    // The kHelloAck is a bare header carrying the session id.
    size_t have = 0;
    while (have < proto::kHeaderSize) {
      pollfd p{c->fd, POLLIN, 0};
      uint64_t now = NowNanos();
      if (now >= deadline) return false;
      ::poll(&p, 1, static_cast<int>((deadline - now) / 1'000'000 + 1));
      ssize_t n = ::recv(c->fd, hdr + have, proto::kHeaderSize - have, 0);
      if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) return false;
      if (n > 0) have += static_cast<size_t>(n);
    }
    proto::FrameHeader ack;
    if (!proto::DecodeHeader(hdr, &ack) ||
        ack.type != static_cast<uint16_t>(proto::FrameType::kHelloAck)) {
      return false;
    }
    c->session = ack.session;
    int flags = ::fcntl(c->fd, F_GETFL, 0);
    ::fcntl(c->fd, F_SETFL, flags | O_NONBLOCK);
    conns_.push_back(std::move(c));
  }
  return true;
}

void OpenLoopClient::Run(const Schedule& schedule) {
  size_t nwin = static_cast<size_t>(schedule.total) + 1;
  std::vector<std::vector<WindowStats>> per_thread(
      static_cast<size_t>(opts_.threads), std::vector<WindowStats>(nwin));
  std::vector<std::thread> threads;
  for (int t = 0; t < opts_.threads; ++t) {
    threads.emplace_back(
        [this, t, &schedule, &per_thread] {
          ThreadMain(t, schedule, &per_thread[static_cast<size_t>(t)]);
        });
  }
  for (auto& t : threads) t.join();
  windows_.assign(nwin, WindowStats());
  for (const auto& pt : per_thread) {
    for (size_t w = 0; w < nwin; ++w) windows_[w].Add(pt[w]);
  }
}

void OpenLoopClient::ThreadMain(int tid, const Schedule& schedule,
                                std::vector<WindowStats>* out) {
  TightenTimerSlack();
  std::vector<WindowStats>& win = *out;
  std::vector<Span> spans;
  Rng rng(opts_.seed * 1000003ull + static_cast<uint64_t>(tid) * 7919 + 1);
  // Backoff jitter has its own stream, so the requests `rng` generates do
  // not depend on how many retries a run needed.
  Rng jitter(rng.Next());
  std::vector<std::pair<uint64_t, Conn::Pending>> retries;  // due ns
  std::vector<Conn*> mine;
  for (int i = 0; i < opts_.conns_per_thread; ++i) {
    mine.push_back(
        conns_[static_cast<size_t>(tid * opts_.conns_per_thread + i)].get());
  }
  std::vector<pollfd> pfds(mine.size());
  int num_partitions = opts_.partitions > 0 ? opts_.partitions : 1;

  auto complete = [&](Conn& c, uint64_t id, const Conn::Pending& p,
                      uint64_t now, bool ok) {
    if (!schedule.Traced(p.window) || tracer_ == nullptr) return;
    Span parent;
    parent.id = tracer_->NextId();
    parent.request = c.span_base | id;
    parent.start_ns = p.sched;
    parent.end_ns = now;
    parent.name = ok ? kClientSpan[p.cls] : kClientFailedSpan[p.cls];
    spans.push_back(parent);
    Span late;
    late.id = tracer_->NextId();
    late.parent = parent.id;
    late.request = parent.request;
    late.start_ns = p.sched;
    late.end_ns = p.sent;
    late.name = "client.late";
    spans.push_back(late);
  };

  // Parses every complete frame in c.in; `now` is when the bytes were read.
  auto parse = [&](Conn& c, uint64_t now) {
    size_t off = 0;
    while (c.in.size() - off >= proto::kHeaderSize) {
      proto::FrameHeader h;
      bool valid = proto::DecodeHeader(c.in.data() + off, &h);
      if (!valid || h.body_len > 64) {
        // The server never sends this: drop the stream; everything still
        // outstanding on it is reported lost.
        c.in.clear();
        ::shutdown(c.fd, SHUT_RDWR);
        return;
      }
      if (c.in.size() - off < proto::kHeaderSize + h.body_len) break;
      const char* body = c.in.data() + off + proto::kHeaderSize;
      off += proto::kHeaderSize + h.body_len;
      auto it = c.outstanding.find(h.request_id);
      if (it == c.outstanding.end()) continue;
      Conn::Pending p = it->second;
      c.outstanding.erase(it);
      ClassCounts& cc = win[static_cast<size_t>(p.window)].counts[p.cls];
      auto type = static_cast<proto::FrameType>(h.type);
      // A shed, conflict abort or bounced submit is sent again while the
      // retry budget lasts; otherwise it is the request's outcome.
      uint64_t hint_ns = 0;
      uint64_t ClassCounts::*outcome = &ClassCounts::bad;
      bool retryable = false;
      if (type == proto::FrameType::kShed) {
        ++cc.shed_replies;
        proto::ShedBody sb;
        if (proto::DecodeShed(body, h.body_len, &sb)) hint_ns = sb.est_wait_ns;
        outcome = &ClassCounts::shed;
        retryable = true;
      } else if (type == proto::FrameType::kResult) {
        proto::ResultBody r;
        if (proto::DecodeResult(body, h.body_len, &r)) {
          switch (static_cast<proto::Status>(r.status)) {
            case proto::Status::kOk: outcome = &ClassCounts::ok; break;
            case proto::Status::kAbortConflict:
              outcome = &ClassCounts::aborted;
              retryable = true;
              break;
            case proto::Status::kAbortUser:
              outcome = &ClassCounts::rollback;
              break;
            case proto::Status::kRetry:
              outcome = &ClassCounts::retry;
              retryable = true;
              break;
            default: break;
          }
        }
      }
      uint64_t due = now + BackoffNs(hint_ns, p.sends, jitter.NextDouble());
      if (retryable && due < p.sched + kRetryBudgetNs) {
        ++cc.resent;
        p.last = outcome;
        retries.push_back({due, p});
        continue;
      }
      ++(cc.*outcome);
      bool ok = outcome == &ClassCounts::ok;
      if (ok) {
        win[static_cast<size_t>(p.window)].latency[p.cls].Add(now - p.sched);
      }
      complete(c, h.request_id, p, now, ok);
    }
    c.in.erase(0, off);
  };

  auto pump = [&](Conn& c) {
    char buf[64 * 1024];
    for (;;) {
      ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        uint64_t now = NowNanos();  // stamp: the moment the bytes were read
        c.in.append(buf, static_cast<size_t>(n));
        parse(c, now);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return;
    }
  };

  // Sends `p` on the next connection under a fresh request id; returns the
  // send time.
  auto send = [&](Conn::Pending p, size_t* rr) {
    Conn& c = *mine[(*rr)++ % mine.size()];
    uint64_t id = c.next_request++;
    proto::FrameHeader h;
    h.type = static_cast<uint16_t>(proto::FrameType::kCall);
    h.body_len = proto::kCallBodySize;
    h.proc = ProcOf(p.cls);
    h.session = c.session;
    h.request_id = id;
    proto::CallBody call;
    call.partition = p.partition;
    call.seed = p.seed;
    call.flags =
        p.cls != kRead && opts_.wait_durable ? proto::kCallWaitDurable : 0;
    char frame[proto::kHeaderSize + proto::kCallBodySize];
    proto::EncodeHeader(frame, h);
    proto::EncodeCall(frame + proto::kHeaderSize, call);
    c.out.append(frame, sizeof(frame));
    c.Flush();
    uint64_t now = NowNanos();
    if (p.sends++ == 0) p.sent = now;
    c.outstanding.emplace(id, p);
    return now;
  };

  auto issue = [&](uint64_t sched, size_t* rr) {
    int w = schedule.WindowOf(sched);
    double u = rng.NextDouble();
    int cls = u < opts_.read_share
                  ? kRead
                  : (u < opts_.read_share + opts_.cross_share ? kCross
                                                              : kWrite);
    int partition = static_cast<int>(rng.Uniform(num_partitions));
    uint64_t seed = rng.Next();
    bool durable = cls != kRead && opts_.wait_durable;
    if (opts_.direct_share > 0 && schedule.Traced(w) &&
        rng.Flip(opts_.direct_share)) {
      sink_->Submit(engine_, *registry_, ProcOf(cls), cls, seed, partition,
                    sched, durable);
      return;
    }
    Conn::Pending p;
    p.sched = sched;
    p.cls = cls;
    p.window = w;
    p.partition = static_cast<uint32_t>(partition);
    p.seed = seed;
    uint64_t sent = send(p, rr);
    WindowStats& ws = win[static_cast<size_t>(w)];
    ++ws.counts[cls].offered;
    ws.late.Add(sent - sched);
  };

  // Re-sends every retry whose backoff has run out; returns the earliest
  // due time still waiting (UINT64_MAX when none).
  auto resend_due = [&](uint64_t now, size_t* rr) {
    uint64_t earliest = UINT64_MAX;
    for (size_t i = 0; i < retries.size();) {
      if (retries[i].first > now) {
        earliest = std::min(earliest, retries[i].first);
        ++i;
        continue;
      }
      Conn::Pending p = retries[i].second;
      retries[i] = retries.back();
      retries.pop_back();
      send(p, rr);
    }
    if (opts_.direct_share > 0) sink_->ServiceRetries(engine_);
    return earliest;
  };

  double per_thread_rate = opts_.rate / opts_.threads;
  double mean_gap_ns = 1e9 / per_thread_rate;
  uint64_t end = schedule.end_ns();
  uint64_t next = schedule.start_ns + ExpGap(rng, mean_gap_ns);
  size_t rr = 0;
  while (next < end) {
    uint64_t now = NowNanos();
    while (next <= now && next < end) {
      issue(next, &rr);
      next += ExpGap(rng, mean_gap_ns);
    }
    uint64_t retry_due = resend_due(now, &rr);
    for (size_t i = 0; i < mine.size(); ++i) {
      Conn& c = *mine[i];
      if (c.out_off < c.out.size()) c.Flush();
      pump(c);
      pfds[i].fd = c.fd;
      pfds[i].events =
          static_cast<short>(POLLIN | (c.out_off < c.out.size() ? POLLOUT : 0));
      pfds[i].revents = 0;
    }
    WaitUntil(std::min({next, end, retry_due}), pfds.data(), pfds.size());
  }

  // Drain: collect stragglers, retries included, until nothing is
  // outstanding or the deadline.
  uint64_t deadline = end + static_cast<uint64_t>(opts_.drain_s * 1e9);
  for (;;) {
    uint64_t retry_due = resend_due(NowNanos(), &rr);
    size_t pending = retries.size();
    for (size_t i = 0; i < mine.size(); ++i) {
      Conn& c = *mine[i];
      if (c.out_off < c.out.size()) c.Flush();
      pump(c);
      pending += c.outstanding.size();
      pfds[i].fd = c.fd;
      pfds[i].events = POLLIN;
      pfds[i].revents = 0;
    }
    uint64_t now = NowNanos();
    if (pending == 0 || now >= deadline) break;
    WaitUntil(std::min({deadline, now + 2'000'000, retry_due}), pfds.data(),
              pfds.size());
  }
  for (Conn* c : mine) {
    for (const auto& [id, p] : c->outstanding) {
      ++win[static_cast<size_t>(p.window)].counts[p.cls].lost;
    }
    c->outstanding.clear();
  }
  // Still backing off at the deadline: the last answer is the outcome.
  for (const auto& [due, p] : retries) {
    ++(win[static_cast<size_t>(p.window)].counts[p.cls].*p.last);
  }
  if (tracer_ != nullptr) tracer_->Merge(std::move(spans));
}

}  // namespace perfbench
