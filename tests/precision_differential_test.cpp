// Empirical falsification of the precision pass (analysis/precision.hpp).
//
// A long-double oracle implements the pass's mixed semantics EXACTLY: it
// replays packets through a replica of the reference interpreter, tracking
// for every temp / field / register cell the deviation d = ideal - impl,
// where the ideal follows the implementation's control flow, hashing and
// indexing but computes shr as true division, approx-helper spans as their
// real functions, and re-anchors at every masking point (bit ops with an
// exact operand, width-limited stores) by wrapping d onto the 2^k ring the
// pass uses.  Tracking the deviation directly — not parallel absolute
// shadows — keeps long-double precision: d stays tiny even when values run
// the full 64-bit ring.
//
// Suite 1 replays a seeded random stream through every catalog app,
// cross-checks the replica's registers bit-exact against a real switch
// (the oracle measures deviations of the TRUE implementation, not of a
// lookalike), then asserts measured |d| <= the pass's proven bound for
// every register array and written field.
//
// Suite 2 proves the harness has teeth: with the deliberately broken shr
// transfer function (PrecisionOptions::unsound_drop_shr_truncation) the
// pass proves a zero bound that the measured deviation exceeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "p4sim/p4sim.hpp"
#include "stat4/approx_math.hpp"
#include "stat4/sparse_freq.hpp"
#include "stat4/types.hpp"
#include "stat4p4/stat4p4.hpp"

namespace {

using p4sim::ApproxSpan;
using p4sim::FieldRef;
using p4sim::Instruction;
using p4sim::ipv4;
using p4sim::Op;
using p4sim::P4Switch;
using p4sim::Packet;
using p4sim::PacketView;
using p4sim::Program;
using p4sim::Word;

constexpr int kPackets = 1200;
// Absorbs long-double rounding noise only; every proven bound carries
// whole-unit terms, so this cannot mask a real transfer-function bug.
constexpr long double kSlack = 1e-6L;

long double ld(Word v) { return static_cast<long double>(v); }

unsigned bit_len(Word v) {
  return static_cast<unsigned>(std::bit_width(v));
}

/// Nearest-representative remainder of d on the 2^w ring (w = 0 collapses
/// the ring entirely, mirroring err_ring_half(0) == 0).
long double wrap_ring(long double d, unsigned width_bits) {
  if (width_bits == 0) return 0.0L;
  const int w = width_bits >= 64 ? 64 : static_cast<int>(width_bits);
  const long double ring = std::ldexp(1.0L, w);
  long double r = std::fmod(d, ring);
  if (r > ring / 2) r -= ring;
  if (r < -ring / 2) r += ring;
  return r;
}

bool writes_temp(Op op) {
  return op != Op::kStoreField && op != Op::kStoreReg && op != Op::kDigest;
}

/// The mixed-semantics ideal of an approx span applied to the real-valued
/// shadows of its inputs (captured at span.begin).
long double span_ideal(const ApproxSpan& span, long double sa,
                       long double sb) {
  switch (span.fn) {
    case ApproxSpan::Fn::kSqrt:
      return std::sqrt(sa < 0 ? 0.0L : sa);
    case ApproxSpan::Fn::kSquare:
      return sa * sa;
    case ApproxSpan::Fn::kMul:
      return sa * sb;
    case ApproxSpan::Fn::kLog2:
      // Output units are 2^kLog2FracBits per bit; inputs below one bit
      // map to 0 (the 0*log(0) convention the entropy sum relies on,
      // matching approx_log2(y <= 1) == 0).
      return sa >= 1 ? std::ldexp(std::log2(sa),
                                  static_cast<int>(stat4::kLog2FracBits))
                     : 0.0L;
    case ApproxSpan::Fn::kTableLookup:
      // The ideal of a lookup extern is whatever the table contract says
      // relative to the implemented output; there is nothing independent
      // to measure against, so the oracle re-anchors exactly.
      return 0.0L;  // caller keeps the implemented value (dev = 0)
  }
  return 0.0L;
}

/// Deviation-tracking replica of the reference interpreter.  Owns its own
/// register state (impl + deviation per cell) and records the worst
/// deviation seen at every store.
struct Oracle {
  const P4Switch* sw = nullptr;
  std::vector<std::vector<Word>> cells;
  std::vector<std::vector<long double>> dev;
  std::vector<Word> masks;
  std::vector<unsigned> widths;
  std::vector<long double> max_reg_dev;
  std::array<long double, p4sim::kFieldCount> max_field_dev{};

  explicit Oracle(const P4Switch& s) : sw(&s) {
    const p4sim::RegisterFile& rf = s.registers();
    for (p4sim::RegisterId r = 0; r < rf.array_count(); ++r) {
      const p4sim::RegisterArrayInfo& info = rf.info(r);
      cells.emplace_back(info.size, 0);
      dev.emplace_back(info.size, 0.0L);
      masks.push_back(info.width_bits >= 64
                          ? ~Word{0}
                          : ((Word{1} << info.width_bits) - 1));
      widths.push_back(info.width_bits);
      max_reg_dev.push_back(0.0L);
    }
  }

  void run_packet(const Packet& pkt) {
    p4sim::ParsedPacket parsed = p4sim::parse(pkt);
    PacketView view;
    view.parsed = &parsed;
    view.meta_ingress_port = pkt.ingress_port;
    view.meta_ingress_ts = static_cast<std::uint64_t>(pkt.ingress_ts);
    view.meta_packet_length = pkt.size();
    view.meta_egress_spec = 0;

    // Field deviations are per-packet: every parse re-anchors the fields.
    std::array<long double, p4sim::kFieldCount> fdev{};
    for (const P4Switch::Stage& stage : sw->pipeline()) {
      if (stage.guard && !stage.guard->holds(view)) continue;
      if (stage.table) {
        const p4sim::MatchResult m =
            sw->table(*stage.table).lookup_linear(view);
        run_program(sw->action(m.action), view, m.action_data, fdev);
      } else if (stage.action) {
        run_program(sw->action(*stage.action), view, {}, fdev);
      }
    }
    for (std::size_t f = 0; f < fdev.size(); ++f) {
      max_field_dev[f] = std::max(max_field_dev[f], std::fabs(fdev[f]));
    }
  }

  void run_program(const Program& p, PacketView& view,
                   std::span<const Word> action_data,
                   std::array<long double, p4sim::kFieldCount>& fdev) {
    std::array<Word, p4sim::kTempCount> t{};
    std::array<long double, p4sim::kTempCount> d{};

    // Validated spans, mirroring precision.cpp's build_facts.
    std::vector<int> span_ending_at(p.code.size(), -1);
    std::vector<const ApproxSpan*> spans;
    for (const ApproxSpan& span : p.approx_spans) {
      const bool range_ok = span.begin < span.end && span.end <= p.code.size();
      if (!range_ok || !writes_temp(p.code[span.end - 1].op) ||
          p.code[span.end - 1].dst != span.out ||
          span.out >= p4sim::kTempCount || span.in_a >= p4sim::kTempCount ||
          span.in_b >= p4sim::kTempCount || span.rel_den == 0) {
        continue;
      }
      span_ending_at[span.end - 1] = static_cast<int>(spans.size());
      spans.push_back(&span);
    }
    std::vector<std::pair<long double, long double>> span_in(spans.size());

    for (std::size_t i = 0; i < p.code.size(); ++i) {
      for (std::size_t k = 0; k < spans.size(); ++k) {
        if (spans[k]->begin == i) {
          span_in[k] = {ld(t[spans[k]->in_a]) + d[spans[k]->in_a],
                        ld(t[spans[k]->in_b]) + d[spans[k]->in_b]};
        }
      }
      const Instruction& ins = p.code[i];
      const Word ta = t[ins.a];
      const Word tb = t[ins.b];
      const long double da = d[ins.a];
      const long double db = d[ins.b];
      switch (ins.op) {
        case Op::kConst:
          t[ins.dst] = ins.imm;
          d[ins.dst] = 0;
          break;
        case Op::kParam:
          t[ins.dst] = ins.imm < action_data.size() ? action_data[ins.imm] : 0;
          d[ins.dst] = 0;
          break;
        case Op::kMov:
          t[ins.dst] = ta;
          d[ins.dst] = da;
          break;
        // Ring translations: wrap multiples of 2^64 drop by convention.
        case Op::kAdd:
          t[ins.dst] = ta + tb;
          d[ins.dst] = da + db;
          break;
        case Op::kSub:
          t[ins.dst] = ta - tb;
          d[ins.dst] = da - db;
          break;
        case Op::kMul:
          t[ins.dst] = ta * tb;
          d[ins.dst] = da * ld(tb) + db * ld(ta) + da * db;
          break;
        case Op::kShl: {
          const int s = static_cast<int>(tb & 63);
          t[ins.dst] = ta << (tb & 63);
          d[ins.dst] = da * std::ldexp(1.0L, s);
          break;
        }
        case Op::kShr: {
          // The ideal divides truly: (impl + d)/2^s - impl>>s.
          const unsigned s = static_cast<unsigned>(tb & 63);
          const Word low = s == 0 ? 0 : (ta & ((Word{1} << s) - 1));
          t[ins.dst] = ta >> s;
          d[ins.dst] = (ld(low) + da) / std::ldexp(1.0L, static_cast<int>(s));
          break;
        }
        // Bit ops re-anchor: the deviation of the one erroneous operand is
        // wrapped onto the 2^k ring that contains the result (k from the
        // RUNTIME values here, always <= the pass's static width, so the
        // oracle's wrap is at least as tight as the proven bound).
        case Op::kAnd: {
          t[ins.dst] = ta & tb;
          const unsigned k = std::min(bit_len(ta), bit_len(tb));
          const long double din =
              (da != 0.0L && db != 0.0L) ? 0.0L : (da != 0.0L ? da : db);
          d[ins.dst] = wrap_ring(din, k);
          break;
        }
        case Op::kOr:
        case Op::kXor: {
          t[ins.dst] = ins.op == Op::kOr ? (ta | tb) : (ta ^ tb);
          const unsigned k = std::max(bit_len(ta), bit_len(tb));
          const long double din =
              (da != 0.0L && db != 0.0L) ? 0.0L : (da != 0.0L ? da : db);
          d[ins.dst] = wrap_ring(din, k);
          break;
        }
        case Op::kNot:
          // ~x = 2^64-1-x in both worlds: the deviation flips sign.
          t[ins.dst] = ~ta;
          d[ins.dst] = -da;
          break;
        // Mixed semantics: comparisons, hashing and control decisions
        // follow the implementation, so their outputs carry no deviation.
        case Op::kEq:
          t[ins.dst] = ta == tb ? 1 : 0;
          d[ins.dst] = 0;
          break;
        case Op::kNe:
          t[ins.dst] = ta != tb ? 1 : 0;
          d[ins.dst] = 0;
          break;
        case Op::kLt:
          t[ins.dst] = ta < tb ? 1 : 0;
          d[ins.dst] = 0;
          break;
        case Op::kGt:
          t[ins.dst] = ta > tb ? 1 : 0;
          d[ins.dst] = 0;
          break;
        case Op::kLe:
          t[ins.dst] = ta <= tb ? 1 : 0;
          d[ins.dst] = 0;
          break;
        case Op::kGe:
          t[ins.dst] = ta >= tb ? 1 : 0;
          d[ins.dst] = 0;
          break;
        case Op::kSelect:
          t[ins.dst] = ta ? tb : t[ins.c];
          d[ins.dst] = ta ? db : d[ins.c];
          break;
        case Op::kLoadField:
          t[ins.dst] = view.get(ins.field);
          d[ins.dst] = fdev[static_cast<std::size_t>(ins.field)];
          break;
        case Op::kStoreField: {
          const unsigned w = analysis::field_bits(ins.field);
          const Word masked =
              w >= 64 ? ta : (ta & ((Word{1} << w) - 1));
          view.set(ins.field, ta);
          // Read-only fields and absent headers drop the store; only a
          // landed store re-anchors the field's deviation.
          if (view.get(ins.field) == masked) {
            fdev[static_cast<std::size_t>(ins.field)] = wrap_ring(da, w);
          }
          continue;
        }
        case Op::kLoadReg: {
          const bool ok = ins.reg < cells.size() && ta < cells[ins.reg].size();
          t[ins.dst] = ok ? cells[ins.reg][ta] : 0;
          d[ins.dst] = ok ? dev[ins.reg][ta] : 0.0L;
          break;
        }
        case Op::kStoreReg: {
          if (ins.reg >= cells.size() || ta >= cells[ins.reg].size()) {
            continue;  // dropped, like an OOB data-plane write
          }
          cells[ins.reg][ta] = tb & masks[ins.reg];
          const long double w = wrap_ring(db, widths[ins.reg]);
          dev[ins.reg][ta] = w;
          max_reg_dev[ins.reg] =
              std::max(max_reg_dev[ins.reg], std::fabs(w));
          continue;
        }
        case Op::kHash1:
          t[ins.dst] = stat4::sparse_hash1(ta);
          d[ins.dst] = 0;
          break;
        case Op::kHash2:
          t[ins.dst] = stat4::sparse_hash2(ta);
          d[ins.dst] = 0;
          break;
        case Op::kDigest:
          continue;
      }
      const int si = span_ending_at[i];
      if (si >= 0) {
        // The span's ideal is the real function of the input shadows; the
        // declared contract the pass charges must cover this distance.
        const ApproxSpan& span = *spans[static_cast<std::size_t>(si)];
        const auto& [sa, sb] = span_in[static_cast<std::size_t>(si)];
        if (span.fn == ApproxSpan::Fn::kTableLookup) {
          d[span.out] = 0;
        } else {
          d[span.out] = span_ideal(span, sa, sb) - ld(t[span.out]);
        }
      }
    }
  }
};

Packet random_packet(std::mt19937_64& rng, stat4::TimeNs ts) {
  // Same traffic mix the exec-tier differential drives: echo frames, TCP
  // with and without SYN, UDP, across /24s and hosts in and out of 10/8.
  Packet pkt;
  switch (rng() % 8) {
    case 0:
      pkt = p4sim::make_echo_packet(static_cast<std::int64_t>(rng() % 4096) -
                                    2048);
      break;
    case 1:
      pkt = p4sim::make_udp_packet(
          ipv4(192, 168, 0, static_cast<unsigned>(rng() % 256)),
          ipv4(172, 16, 0, 1), 53, 53);
      break;
    default: {
      const auto subnet = static_cast<unsigned>(rng() % 8);
      const auto host = static_cast<unsigned>(rng() % 256);
      const std::uint32_t dst = ipv4(10, 0, subnet, host);
      if (rng() % 2 == 0) {
        const std::uint8_t flags =
            rng() % 3 == 0 ? p4sim::kTcpSyn : p4sim::kTcpAck;
        pkt = p4sim::make_tcp_packet(ipv4(1, 1, 1, 1), dst, 1000, 80, flags,
                                     64 + rng() % 512);
      } else {
        pkt = p4sim::make_udp_packet(ipv4(1, 1, 1, 1), dst, 1000, 80,
                                     64 + rng() % 512);
      }
      break;
    }
  }
  pkt.ingress_ts = ts;
  return pkt;
}

const analysis::ErrorBound* find_bound(
    const std::vector<analysis::ErrorBound>& bounds, const std::string& name) {
  for (const analysis::ErrorBound& b : bounds) {
    if (b.name == name) return &b;
  }
  return nullptr;
}

long double proven_units(const analysis::ErrorBound& b) {
  return std::ldexp(static_cast<long double>(b.err_q32),
                    -static_cast<int>(analysis::kErrFracBits));
}

/// Replays a seeded stream through the oracle and a real reference-tier
/// switch, checks the replica bit-exact, then measured <= proven.
void replay_app(const std::string& app, std::uint64_t seed) {
  const std::shared_ptr<const P4Switch> sw = analysis::build_example(app);
  const std::shared_ptr<P4Switch> twin = analysis::build_example_mutable(app);
  twin->set_exec_tier(p4sim::ExecTier::kReference);

  Oracle oracle(*sw);
  std::mt19937_64 rng(seed);
  std::mt19937_64 rng_twin(seed);
  for (int i = 0; i < kPackets; ++i) {
    oracle.run_packet(random_packet(rng, i));
    (void)twin->process(random_packet(rng_twin, i));
  }

  // Replica fidelity: the oracle measured deviations of the real switch's
  // arithmetic, not of an approximation of it.
  const p4sim::RegisterFile& rf = twin->registers();
  ASSERT_EQ(rf.array_count(), oracle.cells.size()) << app;
  for (p4sim::RegisterId r = 0; r < rf.array_count(); ++r) {
    const p4sim::RegisterArrayInfo& info = rf.info(r);
    for (std::uint64_t i = 0; i < info.size; ++i) {
      ASSERT_EQ(rf.read(r, i), oracle.cells[r][i])
          << app << ": register " << info.name << "[" << i << "]";
    }
  }

  // The pass, certified for exactly this stream length.
  analysis::AnalysisOptions options;
  options.max_observations = kPackets;
  const analysis::PrecisionResult pres =
      analysis::analyze_precision(*sw, options);
  EXPECT_TRUE(pres.ok()) << app;

  for (p4sim::RegisterId r = 0; r < rf.array_count(); ++r) {
    const std::string& name = rf.info(r).name;
    const analysis::ErrorBound* b = find_bound(pres.register_bounds, name);
    ASSERT_NE(b, nullptr) << app << ": no proven bound for register " << name;
    EXPECT_LE(oracle.max_reg_dev[r], proven_units(*b) + kSlack)
        << app << ": register " << name << " measured |ideal - impl| "
        << static_cast<double>(oracle.max_reg_dev[r])
        << " exceeds the proven bound "
        << analysis::err_q32_str(b->err_q32);
  }
  for (std::size_t f = 0; f < p4sim::kFieldCount; ++f) {
    const analysis::ErrorBound* b = find_bound(
        pres.field_bounds, p4sim::field_name(static_cast<FieldRef>(f)));
    if (b == nullptr) continue;  // pipeline never writes this field
    EXPECT_LE(oracle.max_field_dev[f], proven_units(*b) + kSlack)
        << app << ": field " << b->name << " measured |ideal - impl| "
        << static_cast<double>(oracle.max_field_dev[f])
        << " exceeds the proven bound "
        << analysis::err_q32_str(b->err_q32);
  }
}

TEST(PrecisionDifferential, EveryCatalogAppStaysWithinProvenBounds) {
  for (const analysis::ExampleApp& app : analysis::example_apps()) {
    SCOPED_TRACE(app.name);
    replay_app(app.name, 42);
  }
}

TEST(PrecisionDifferential, SecondSeedAgreesWithTheProof) {
  // The proof quantifies over all streams; a second seed probes a
  // different corner of that space for free.
  for (const char* app :
       {"case_study", "echo", "sketch_changer", "entropy"}) {
    SCOPED_TRACE(app);
    replay_app(app, 20260808);
  }
}

// A harness that cannot flag an unsound analysis proves nothing.  Break
// the shr transfer function on purpose (drop the truncation term) and the
// measured deviation of a plain `acc += len >> 1` accumulator must exceed
// the now-zero "proven" bound — while the sound analysis still covers it.
TEST(PrecisionDifferential, BrokenShrTransferFunctionIsCaught) {
  P4Switch sw("shr-fixture");
  const p4sim::RegisterId acc = sw.registers().declare("acc", 1, 64);
  p4sim::ProgramBuilder b("acc_add_half_len");
  const p4sim::TempId half =
      b.shr(b.load_field(FieldRef::kMetaPacketLength), b.konst(1));
  const p4sim::TempId idx = b.konst(0);
  b.store_reg(acc, idx, b.add(b.load_reg(acc, idx), half));
  sw.add_program_stage(sw.add_action(b.take()));

  constexpr int kN = 64;
  Oracle oracle(sw);
  for (int i = 0; i < kN; ++i) {
    // Alternating parity guarantees odd lengths, i.e. real truncation.
    Packet pkt = p4sim::make_udp_packet(ipv4(1, 1, 1, 1), ipv4(10, 0, 0, 1),
                                        1000, 80,
                                        64 + static_cast<unsigned>(i));
    pkt.ingress_ts = i;
    oracle.run_packet(pkt);
  }
  ASSERT_GT(oracle.max_reg_dev[acc], 0.25L);  // truncation really happened

  analysis::AnalysisOptions options;
  options.max_observations = kN;

  analysis::PrecisionOptions broken;
  broken.unsound_drop_shr_truncation = true;
  const analysis::PrecisionResult unsound =
      analysis::analyze_precision(sw, options, broken);
  const analysis::ErrorBound* ub = find_bound(unsound.register_bounds, "acc");
  ASSERT_NE(ub, nullptr);
  EXPECT_EQ(ub->err_q32, 0u) << "the broken transfer function should claim "
                                "a (wrong) zero bound";
  EXPECT_GT(oracle.max_reg_dev[acc], proven_units(*ub) + kSlack)
      << "the harness failed to refute a deliberately unsound analysis";

  const analysis::PrecisionResult sound = analysis::analyze_precision(
      sw, options);
  const analysis::ErrorBound* sb = find_bound(sound.register_bounds, "acc");
  ASSERT_NE(sb, nullptr);
  EXPECT_LE(oracle.max_reg_dev[acc], proven_units(*sb) + kSlack);
}

}  // namespace
