#include "stat4p4/programs.hpp"

#include <stdexcept>

namespace stat4p4 {

using p4sim::FieldRef;
using p4sim::Program;
using p4sim::ProgramBuilder;
using p4sim::TempId;
using p4sim::Word;

namespace {

/// t * k for a small build-time constant k, using shifts and adds only
/// (k_sigma is typically 2: one shift).
TempId scale_const(ProgramBuilder& b, TempId t, unsigned k) {
  switch (k) {
    case 1: return t;
    case 2: return b.shl(t, b.konst(1));
    case 3: return b.add(b.shl(t, b.konst(1)), t);
    case 4: return b.shl(t, b.konst(2));
    case 8: return b.shl(t, b.konst(3));
    default:
      throw std::invalid_argument(
          "stat4p4: k_sigma must be one of 1,2,3,4,8 (shift/add encodable)");
  }
}

/// x * y where x is known to fit in `x_bits` bits — lets the exact
/// shift-add ladder stay short when one operand is small (N, a weight, ...).
TempId emit_mul(ProgramBuilder& b, TempId x, TempId y, MulStrategy mul,
                unsigned x_bits = 32) {
  switch (mul) {
    case MulStrategy::kNative: return b.mul(x, y);
    case MulStrategy::kShiftAddExact: return b.mul_shift_add(x, y, x_bits);
    case MulStrategy::kApproxMsb: return b.approx_mul(x, y);
  }
  return b.mul(x, y);
}

TempId emit_square(ProgramBuilder& b, TempId x, MulStrategy mul,
                   unsigned x_bits = 32) {
  switch (mul) {
    case MulStrategy::kNative: return b.mul(x, x);
    case MulStrategy::kShiftAddExact: return b.mul_shift_add(x, x, x_bits);
    case MulStrategy::kApproxMsb: return b.approx_square(x);
  }
  return b.mul(x, x);
}

/// Bits needed to hold values below `bound` (plus one for safety).
unsigned bits_for(std::uint64_t bound) {
  unsigned bits = 1;
  while ((std::uint64_t{1} << bits) < bound) ++bits;
  return bits + 1;
}

struct FreqUpdate {
  TempId n = 0;       ///< N after the update
  TempId xsum = 0;    ///< Xsum after the update
  TempId xsumsq = 0;  ///< Xsumsq after the update
  TempId var = 0;     ///< var(NX) after the update
  TempId freq = 0;    ///< f[v] after the update
};

/// Emits the Section 2 frequency-distribution update for value temp `v` of
/// distribution temp `d` (with ring base temp `base`), including variance
/// maintenance.  Registers are read once and written once.
FreqUpdate emit_freq_update(ProgramBuilder& b, const Stat4Registers& regs,
                            const Stat4Config& cfg, TempId d, TempId base,
                            TempId v, MulStrategy mul) {
  const TempId zero = b.konst(0);
  const TempId one = b.konst(1);
  const TempId idx = b.add(base, v);
  const TempId f = b.load_reg(regs.counters, idx);
  const TempId n = b.load_reg(regs.n, d);
  const TempId xs = b.load_reg(regs.xsum, d);
  const TempId xq = b.load_reg(regs.xsumsq, d);

  FreqUpdate out;
  const TempId is_new = b.eq(f, zero);
  out.n = b.add(n, is_new);   // N += 1 iff this value was unseen
  out.xsum = b.add(xs, one);  // Xsum += 1
  // Xsumsq += (f+1)^2 - f^2 = 2f + 1
  const TempId delta = b.add(b.shl(f, one), one);
  out.xsumsq = b.add(xq, delta);
  out.freq = b.add(f, one);

  // var(NX) = N * Xsumsq - Xsum^2, clamped at zero under the approximate
  // product (exact products can never go negative here).
  const TempId n_xq =
      emit_mul(b, out.n, out.xsumsq, mul, bits_for(cfg.counter_size));
  const TempId xs_sq = emit_square(b, out.xsum, mul);
  const TempId nonneg = b.ge(n_xq, xs_sq);
  out.var = b.select(nonneg, b.sub(n_xq, xs_sq), zero);

  b.store_reg(regs.counters, idx, out.freq);
  b.store_reg(regs.n, d, out.n);
  b.store_reg(regs.xsum, d, out.xsum);
  b.store_reg(regs.xsumsq, d, out.xsumsq);
  b.store_reg(regs.var, d, out.var);
  return out;
}

/// Emits the Figure 3 percentile-tracker step for distribution `d` after
/// `v`'s frequency was raised to `fv`.  Guarded by the `enabled` temp: when
/// zero, every register is written back unchanged.
void emit_percentile_step(ProgramBuilder& b, const Stat4Registers& regs,
                          const Stat4Config& cfg, TempId d, TempId base,
                          TempId v, TempId enabled, TempId weight_low,
                          TempId weight_high, MulStrategy mul) {
  const TempId zero = b.konst(0);
  const TempId one = b.konst(1);
  const TempId init = b.load_reg(regs.med_init, d);
  const TempId pos0 = b.load_reg(regs.med_pos, d);
  const TempId low0 = b.load_reg(regs.med_low, d);
  const TempId high0 = b.load_reg(regs.med_high, d);

  // First observation seeds the position at v (low/high stay zero).
  const TempId pos = b.select(init, pos0, v);

  // Account the new observation on the correct side of the tracker.
  const TempId v_below = b.band(init, b.lt(v, pos));
  const TempId v_above = b.band(init, b.gt(v, pos));
  const TempId low1 = b.add(low0, v_below);
  const TempId high1 = b.add(high0, v_above);

  // Balance test at the tracked slot (one move max, Figure 3).
  const TempId fm = b.load_reg(regs.counters, b.add(base, pos));
  constexpr unsigned kWeightBits = 7;  // percentile weights are < 100
  const TempId up_lhs = emit_mul(b, weight_low, high1, mul, kWeightBits);
  const TempId up_rhs =
      emit_mul(b, weight_high, b.add(low1, fm), mul, kWeightBits);
  const TempId up_raw = b.gt(up_lhs, up_rhs);
  const TempId dn_lhs = emit_mul(b, weight_high, low1, mul, kWeightBits);
  const TempId dn_rhs =
      emit_mul(b, weight_low, b.add(high1, fm), mul, kWeightBits);
  const TempId dn_raw = b.select(up_raw, zero, b.gt(dn_lhs, dn_rhs));

  // Clamp at the domain edges.
  const TempId size = b.konst(cfg.counter_size);
  const TempId pos_up = b.add(pos, one);
  const TempId up_ok = b.band(up_raw, b.lt(pos_up, size));
  const TempId has_left = b.gt(pos, zero);
  const TempId pos_dn = b.select(has_left, b.sub(pos, one), zero);
  const TempId dn_ok = b.band(dn_raw, has_left);

  const TempId f_up = b.load_reg(regs.counters, b.add(base, pos_up));
  const TempId f_dn = b.load_reg(regs.counters, b.add(base, pos_dn));

  const TempId pos2 =
      b.select(up_ok, pos_up, b.select(dn_ok, pos_dn, pos));
  const TempId low2 = b.select(up_ok, b.add(low1, fm),
                               b.select(dn_ok, b.sub(low1, f_dn), low1));
  const TempId high2 = b.select(up_ok, b.sub(high1, f_up),
                                b.select(dn_ok, b.add(high1, fm), high1));

  b.store_reg(regs.med_pos, d, b.select(enabled, pos2, pos0));
  b.store_reg(regs.med_low, d, b.select(enabled, low2, low0));
  b.store_reg(regs.med_high, d, b.select(enabled, high2, high0));
  b.store_reg(regs.med_init, d, b.select(enabled, one, init));
}

}  // namespace

Program build_track_freq(const Stat4Registers& regs, const Stat4Config& cfg,
                         FieldRef source, const BuildOptions& opt) {
  ProgramBuilder b("track_freq");
  const TempId zero = b.konst(0);

  const TempId d = b.param(kAdDist);
  const TempId shift = b.param(kAdShift);
  const TempId mask = b.param(kAdMask);
  const TempId base = b.param(kAdBase);
  const TempId check = b.param(kAdCheck);
  const TempId min_total = b.param(kAdMinTotal);
  const TempId offset = b.param(kAdOffset);

  // Value of interest: v = ((field + offset) >> shift) & mask, clamped into
  // the distribution domain (an oversized value would otherwise alias into a
  // neighbouring distribution's cells).
  const TempId raw = b.load_field(source);
  const TempId v_raw = b.band(b.shr(b.add(raw, offset), shift), mask);
  const TempId last = b.konst(cfg.counter_size - 1);
  const TempId in_range = b.le(v_raw, last);
  const TempId v = b.select(in_range, v_raw, last);

  const FreqUpdate u = emit_freq_update(b, regs, cfg, d, base, v, opt.mul);

  // Outlier check: N * f[v] > Xsum + k*sd(NX) + N  (the +N is the integer
  // quantization slack, see stat4::FreqDist::frequency_outlier).  sd is
  // computed here — at check time — which is the paper's lazy evaluation.
  // Straight-line code still spells out the MSB search on every packet: the
  // reference and native tiers run it whether or not the entry checks;
  // the threaded tier skips it while `check` is zero (every op it feeds
  // only matters through `tripped`, a band with `check`).
  const TempId sd = b.approx_sqrt(u.var);
  const TempId ksd = scale_const(b, sd, cfg.k_sigma);
  const TempId thr = b.add(b.add(u.xsum, ksd), u.n);
  const TempId scaled =
      emit_mul(b, u.n, u.freq, opt.mul, bits_for(cfg.counter_size));
  const TempId warm = b.ge(u.xsum, min_total);
  const TempId outlier = b.gt(scaled, thr);
  const TempId tripped = b.band(check, b.band(warm, outlier));

  const TempId al = b.load_reg(regs.alerted, d);
  const TempId fire = b.band(tripped, b.eq(al, zero));
  b.digest_if(fire, kDigestImbalance, d, v, u.freq);
  b.store_reg(regs.alerted, d, b.bor(al, fire));
  // Capture the offending value so the mitigation stage can match it.
  const TempId hot_old = b.load_reg(regs.hot_value, d);
  b.store_reg(regs.hot_value, d, b.select(fire, v, hot_old));

  // Optional percentile tracking.
  const TempId med_en = b.param(kAdMedian);
  const TempId w_low = b.param(kAdWeightLow);
  const TempId w_high = b.param(kAdWeightHigh);
  emit_percentile_step(b, regs, cfg, d, base, v, med_en, w_low, w_high,
                       opt.mul);
  return b.take();
}

Program build_track_sparse(const Stat4Registers& regs, const Stat4Config& cfg,
                           FieldRef source, const BuildOptions& opt) {
  if ((cfg.counter_size & (cfg.counter_size - 1)) != 0) {
    throw std::invalid_argument(
        "stat4p4: sparse tracking needs a power-of-two counter_size");
  }
  ProgramBuilder b("track_sparse");
  const TempId zero = b.konst(0);
  const TempId one = b.konst(1);

  const TempId d = b.param(kAdDist);
  const TempId shift = b.param(kAdShift);
  const TempId mask = b.param(kAdMask);
  const TempId base = b.param(kAdBase);
  const TempId check = b.param(kAdCheck);
  const TempId min_total = b.param(kAdMinTotal);
  const TempId offset = b.param(kAdOffset);

  // The key may span the full field width (e.g. a whole 32-bit address) —
  // exactly the case Section 2 called impractical for dense tracking.
  const TempId raw = b.load_field(source);
  const TempId key = b.band(b.shr(b.add(raw, offset), shift), mask);
  const TempId key_p1 = b.add(key, one);

  // Two probe positions from the hash externs (h2 forced odd so the probes
  // differ; counter_size is a power of two so the mask has its low bit set).
  const TempId szmask = b.konst(cfg.counter_size - 1);
  const TempId h1 = b.hash1(key);
  const TempId h2 = b.bor(b.hash2(key), one);
  const TempId idx0 = b.add(base, b.band(h1, szmask));
  const TempId idx1 = b.add(base, b.band(b.add(h1, h2), szmask));

  const TempId k0 = b.load_reg(regs.sparse_keys, idx0);
  const TempId k1 = b.load_reg(regs.sparse_keys, idx1);
  const TempId c0 = b.load_reg(regs.sparse_counts, idx0);
  const TempId c1 = b.load_reg(regs.sparse_counts, idx1);

  const TempId m0 = b.eq(k0, key_p1);
  const TempId m1 = b.eq(k1, key_p1);
  const TempId e0 = b.eq(k0, zero);
  const TempId e1 = b.eq(k1, zero);

  // Slot choice: match at probe 0 > match at probe 1 > empty 0 > empty 1.
  const TempId any_match = b.bor(m0, m1);
  const TempId no_match = b.eq(any_match, zero);
  const TempId use0 = b.bor(m0, b.band(no_match, e0));
  const TempId not_use0 = b.eq(use0, zero);
  const TempId use1 = b.band(not_use0, b.bor(m1, b.band(no_match, e1)));
  const TempId tracked = b.bor(use0, use1);

  const TempId old_f = b.select(m0, c0, b.select(m1, c1, zero));
  const TempId new_f = b.add(old_f, one);

  // Write the chosen slot; unmatched packets write everything back as-is
  // (a register write per packet either way, like a real pipeline).
  const TempId sel_idx = b.select(use0, idx0, idx1);
  const TempId sel_key = b.select(use0, k0, k1);
  const TempId sel_cnt = b.select(use0, c0, c1);
  b.store_reg(regs.sparse_keys, sel_idx,
              b.select(tracked, key_p1, sel_key));
  b.store_reg(regs.sparse_counts, sel_idx,
              b.select(tracked, new_f, sel_cnt));

  // Statistics over the tracked frequencies, guarded by `tracked`:
  // N += [old_f == 0], Xsum += 1, Xsumsq += 2*old_f + 1.
  const TempId n = b.load_reg(regs.n, d);
  const TempId xs = b.load_reg(regs.xsum, d);
  const TempId xq = b.load_reg(regs.xsumsq, d);
  const TempId is_new = b.band(tracked, b.eq(old_f, zero));
  const TempId n2 = b.add(n, is_new);
  const TempId xs2 = b.add(xs, tracked);
  const TempId delta = b.select(tracked, b.add(b.shl(old_f, one), one), zero);
  const TempId xq2 = b.add(xq, delta);
  const TempId n_xq =
      emit_mul(b, n2, xq2, opt.mul, bits_for(cfg.counter_size));
  const TempId xs_sq = emit_square(b, xs2, opt.mul);
  const TempId nonneg = b.ge(n_xq, xs_sq);
  const TempId var = b.select(nonneg, b.sub(n_xq, xs_sq), zero);
  b.store_reg(regs.n, d, n2);
  b.store_reg(regs.xsum, d, xs2);
  b.store_reg(regs.xsumsq, d, xq2);
  b.store_reg(regs.var, d, var);

  // Overflow accounting: observations whose probes were all taken.
  const TempId untracked = b.eq(tracked, zero);
  const TempId ovf = b.load_reg(regs.sparse_overflow, d);
  b.store_reg(regs.sparse_overflow, d, b.add(ovf, untracked));

  // Outlier check with lazily computed sd (same form as track_freq).
  const TempId sd = b.approx_sqrt(var);
  const TempId ksd = scale_const(b, sd, cfg.k_sigma);
  const TempId thr = b.add(b.add(xs2, ksd), n2);
  const TempId scaled =
      emit_mul(b, n2, new_f, opt.mul, bits_for(cfg.counter_size));
  const TempId warm = b.ge(xs2, min_total);
  const TempId outlier = b.gt(scaled, thr);
  const TempId tripped =
      b.band(tracked, b.band(check, b.band(warm, outlier)));
  const TempId al = b.load_reg(regs.alerted, d);
  const TempId fire = b.band(tripped, b.eq(al, zero));
  b.digest_if(fire, kDigestImbalance, d, key, new_f);
  b.store_reg(regs.alerted, d, b.bor(al, fire));
  const TempId hot_old = b.load_reg(regs.hot_value, d);
  b.store_reg(regs.hot_value, d, b.select(fire, key, hot_old));
  return b.take();
}

Program build_window_tick(const Stat4Registers& regs, const Stat4Config& cfg,
                          const BuildOptions& opt) {
  ProgramBuilder b("window_tick");
  const TempId zero = b.konst(0);
  const TempId one = b.konst(1);

  const TempId d = b.param(kAdDist);
  const TempId len = b.param(kAdIntervalLen);
  const TempId minh = b.param(kAdMinHistory);
  const TempId base = b.param(kAdWindowBase);
  const TempId wsize = b.param(kAdWindowSize);

  const TempId now = b.load_field(FieldRef::kMetaIngressTs);
  const TempId start = b.load_reg(regs.win_start, d);
  const TempId anchored = b.load_reg(regs.win_anchored, d);
  const TempId boundary = b.add(start, len);
  const TempId rolled = b.band(anchored, b.ge(now, boundary));

  const TempId cur = b.load_reg(regs.cur_count, d);
  const TempId head = b.load_reg(regs.win_head, d);
  const TempId wcount = b.load_reg(regs.win_count, d);
  const TempId n = b.load_reg(regs.n, d);
  const TempId xs = b.load_reg(regs.xsum, d);
  const TempId xq = b.load_reg(regs.xsumsq, d);
  const TempId var0 = b.load_reg(regs.var, d);

  const TempId primed = b.ge(wcount, wsize);
  const TempId idx = b.add(base, head);
  const TempId old = b.load_reg(regs.counters, idx);
  const TempId finished = cur;  // the count of the interval being closed

  // Spike check against the *historical* distribution, before inserting the
  // finished interval (Section 4: "rate higher than the mean of the stored
  // distribution plus two standard deviations").  sd, the checks and the
  // eviction below only matter on the packet that rolls the interval: the
  // stores keep the old values unless `rolled`.  The straight-line program
  // computes them on every packet (so do the reference and native
  // tiers); the threaded tier skips them while `rolled` is zero, which is
  // what makes sd lazy there — one sqrt per interval.
  const TempId sd = b.approx_sqrt(var0);
  const TempId ksd = scale_const(b, sd, cfg.rate_k());
  const TempId thr = b.add(xs, ksd);
  const TempId scaled =
      emit_mul(b, n, finished, opt.mul, bits_for(cfg.counter_size));
  const TempId armed = b.ge(wcount, minh);
  const TempId spike = b.band(rolled, b.band(armed, b.gt(scaled, thr)));
  // Lower outlier — the "remote failure / stalled flows" check of Table 1:
  // N*finished < Xsum - k*sd.  Computed with a guarded subtraction since
  // registers are unsigned.
  const TempId stall_en = b.param(kAdStallCheck);
  const TempId has_margin = b.ge(xs, ksd);
  const TempId low_thr = b.select(has_margin, b.sub(xs, ksd), zero);
  const TempId stall_raw = b.band(has_margin, b.lt(scaled, low_thr));
  const TempId stall =
      b.band(stall_en, b.band(rolled, b.band(armed, stall_raw)));
  const TempId al = b.load_reg(regs.alerted, d);
  const TempId not_alerted = b.eq(al, zero);
  const TempId fire = b.band(spike, not_alerted);
  const TempId fire_stall =
      b.band(stall, b.band(not_alerted, b.eq(fire, zero)));
  b.digest_if(fire, kDigestRateSpike, d, finished, thr);
  b.digest_if(fire_stall, kDigestRateStall, d, finished, low_thr);
  b.store_reg(regs.alerted, d, b.bor(al, b.bor(fire, fire_stall)));

  // Evict the oldest counter and insert the finished interval.  This is the
  // sequence the paper's resource analysis calls out as its longest
  // dependency chain ("12 sequential steps, used to override the oldest
  // counter in distributions of traffic over time").
  const TempId old_eff = b.select(primed, old, zero);
  const TempId xs_new = b.add(b.sub(xs, old_eff), finished);
  const TempId old_sq = emit_square(b, old_eff, opt.mul);
  const TempId fin_sq = emit_square(b, finished, opt.mul);
  const TempId xq_new = b.add(b.sub(xq, old_sq), fin_sq);
  const TempId n_new = b.select(primed, n, b.add(n, one));
  const TempId n_xq =
      emit_mul(b, n_new, xq_new, opt.mul, bits_for(cfg.counter_size));
  const TempId xs_sq = emit_square(b, xs_new, opt.mul);
  const TempId var_ok = b.ge(n_xq, xs_sq);
  const TempId var_new = b.select(var_ok, b.sub(n_xq, xs_sq), zero);

  b.store_reg(regs.xsum, d, b.select(rolled, xs_new, xs));
  b.store_reg(regs.xsumsq, d, b.select(rolled, xq_new, xq));
  b.store_reg(regs.n, d, b.select(rolled, n_new, n));
  b.store_reg(regs.var, d, b.select(rolled, var_new, var0));
  b.store_reg(regs.counters, idx, b.select(rolled, finished, old));

  const TempId head_next_raw = b.add(head, one);
  const TempId head_wrap = b.eq(head_next_raw, wsize);
  const TempId head_next = b.select(head_wrap, zero, head_next_raw);
  b.store_reg(regs.win_head, d, b.select(rolled, head_next, head));
  b.store_reg(regs.win_count, d, b.select(rolled, b.add(wcount, one), wcount));
  // The current packet opens (or continues) the active interval.
  b.store_reg(regs.cur_count, d, b.select(rolled, one, b.add(cur, one)));
  const TempId start_next = b.select(rolled, boundary, start);
  b.store_reg(regs.win_start, d, b.select(anchored, start_next, now));
  b.store_reg(regs.win_anchored, d, one);
  return b.take();
}

Program build_track_value(const Stat4Registers& regs, const Stat4Config& cfg,
                          FieldRef source, const BuildOptions& opt) {
  ProgramBuilder b("track_value");
  const TempId zero = b.konst(0);
  const TempId one = b.konst(1);

  const TempId d = b.param(kAdDist);
  const TempId shift = b.param(kAdShift);
  const TempId mask = b.param(kAdMask);
  const TempId base = b.param(kAdBase);
  const TempId check = b.param(kAdCheck);
  const TempId min_total = b.param(kAdMinTotal);
  const TempId offset = b.param(kAdOffset);

  const TempId raw = b.load_field(source);
  const TempId v = b.band(b.shr(b.add(raw, offset), shift), mask);

  // N += 1, Xsum += v, Xsumsq += v^2 (Section 2, value distributions).
  const TempId n = b.load_reg(regs.n, d);
  const TempId xs = b.load_reg(regs.xsum, d);
  const TempId xq = b.load_reg(regs.xsumsq, d);
  const TempId n2 = b.add(n, one);
  const TempId xs2 = b.add(xs, v);
  const TempId v_sq = emit_square(b, v, opt.mul);
  const TempId xq2 = b.add(xq, v_sq);
  const TempId n_xq =
      emit_mul(b, n2, xq2, opt.mul, bits_for(cfg.counter_size));
  const TempId xs_sq = emit_square(b, xs2, opt.mul);
  const TempId nonneg = b.ge(n_xq, xs_sq);
  const TempId var = b.select(nonneg, b.sub(n_xq, xs_sq), zero);
  b.store_reg(regs.n, d, n2);
  b.store_reg(regs.xsum, d, xs2);
  b.store_reg(regs.xsumsq, d, xq2);
  b.store_reg(regs.var, d, var);

  // "and store x_k in a new counter": samples land in the counter row until
  // it is full (index = old N, clamped to the last cell).
  const TempId last = b.konst(cfg.counter_size - 1);
  const TempId in_row = b.lt(n, b.konst(cfg.counter_size));
  const TempId slot = b.select(in_row, n, last);
  const TempId idx = b.add(base, slot);
  const TempId old_cell = b.load_reg(regs.counters, idx);
  b.store_reg(regs.counters, idx, b.select(in_row, v, old_cell));

  // Optional outlier check on the just-observed value:
  //   N*v > Xsum + k*sd(NX)   (the Section 2 outlier test, verbatim).
  const TempId sd = b.approx_sqrt(var);
  const TempId ksd = scale_const(b, sd, cfg.k_sigma);
  const TempId thr = b.add(xs2, ksd);
  const TempId scaled =
      emit_mul(b, n2, v, opt.mul, bits_for(cfg.counter_size));
  const TempId warm = b.ge(n2, min_total);
  const TempId outlier = b.gt(scaled, thr);
  const TempId tripped = b.band(check, b.band(warm, outlier));
  const TempId al = b.load_reg(regs.alerted, d);
  const TempId fire = b.band(tripped, b.eq(al, zero));
  b.digest_if(fire, kDigestValueOutlier, d, v, thr);
  b.store_reg(regs.alerted, d, b.bor(al, fire));
  const TempId hot_old = b.load_reg(regs.hot_value, d);
  b.store_reg(regs.hot_value, d, b.select(fire, v, hot_old));
  return b.take();
}

Program build_mitigate(const Stat4Registers& regs, const Stat4Config& cfg,
                       FieldRef source) {
  (void)cfg;
  ProgramBuilder b("mitigate");
  const TempId zero = b.konst(0);

  const TempId d = b.param(kAdDist);
  const TempId shift = b.param(kAdShift);
  const TempId mask = b.param(kAdMask);
  const TempId offset = b.param(kAdOffset);

  const TempId raw = b.load_field(source);
  const TempId v = b.band(b.shr(b.add(raw, offset), shift), mask);

  const TempId al = b.load_reg(regs.alerted, d);
  const TempId hot = b.load_reg(regs.hot_value, d);
  const TempId is_hot = b.band(al, b.eq(v, hot));

  // Drop the offender; everything else keeps the forwarding decision made
  // by the earlier stages.
  const TempId egress = b.load_field(FieldRef::kMetaEgressSpec);
  b.store_field(FieldRef::kMetaEgressSpec, b.select(is_hot, zero, egress));
  return b.take();
}

Program build_track_entropy(const Stat4Registers& regs,
                            const Stat4Config& cfg, FieldRef source,
                            const BuildOptions& opt) {
  ProgramBuilder b("track_entropy");
  const TempId zero = b.konst(0);
  const TempId one = b.konst(1);

  const TempId d = b.param(kAdDist);
  const TempId shift = b.param(kAdShift);
  const TempId mask = b.param(kAdMask);
  const TempId base = b.param(kAdBase);
  const TempId check = b.param(kAdCheck);
  const TempId min_total = b.param(kAdMinTotal);
  const TempId offset = b.param(kAdOffset);
  const TempId theta = b.param(kAdTheta);
  const TempId mode = b.param(kAdEntropyMode);

  const TempId raw = b.load_field(source);
  const TempId v_raw = b.band(b.shr(b.add(raw, offset), shift), mask);
  const TempId last = b.konst(cfg.counter_size - 1);
  const TempId in_range = b.le(v_raw, last);
  const TempId v = b.select(in_range, v_raw, last);

  // Frequency bump.
  const TempId idx = b.add(base, v);
  const TempId f = b.load_reg(regs.counters, idx);
  const TempId f1 = b.add(f, one);
  b.store_reg(regs.counters, idx, f1);

  // T lives in xsum, S in xsumsq (kLog2FracBits fixed point):
  //   S += (f+1)*log2(f+1) - f*log2(f)
  const TempId t0 = b.load_reg(regs.xsum, d);
  const TempId s0 = b.load_reg(regs.xsumsq, d);
  const TempId t1 = b.add(t0, one);
  const TempId log_f1 = b.approx_log2(f1);
  const TempId log_f = b.approx_log2(f);
  const TempId term_new = emit_mul(b, f1, log_f1, opt.mul);
  const TempId term_old = emit_mul(b, f, log_f, opt.mul);
  const TempId s1 = b.sub(b.add(s0, term_new), term_old);
  b.store_reg(regs.xsum, d, t1);
  b.store_reg(regs.xsumsq, d, s1);

  // Division-free threshold test.  With log_t = approx_log2(T'):
  //   H < theta  <=>  log_t > theta  &&  S > T*(log_t - theta),
  //                   or log_t <= theta (even uniform sits below theta).
  //   H > theta  <=>  log_t > theta  &&  S < T*(log_t - theta).
  const TempId log_t = b.approx_log2(t1);
  const TempId margin_ok = b.gt(log_t, theta);
  const TempId rhs =
      emit_mul(b, t1, b.sub(log_t, theta), opt.mul);
  const TempId below_cmp = b.gt(s1, rhs);
  const TempId below =
      b.bor(b.band(margin_ok, below_cmp), b.eq(margin_ok, zero));
  const TempId above = b.band(margin_ok, b.lt(s1, rhs));
  const TempId want_above = b.ne(mode, zero);
  const TempId tripped_raw = b.select(want_above, above, below);

  const TempId two = b.konst(2);
  const TempId warm = b.band(b.ge(t1, min_total), b.ge(t1, two));
  const TempId tripped = b.band(check, b.band(warm, tripped_raw));
  const TempId al = b.load_reg(regs.alerted, d);
  const TempId fire = b.band(tripped, b.eq(al, zero));
  // digest_if takes a static id; emit both, each gated on its own mode.
  const TempId fire_low = b.band(fire, b.eq(want_above, zero));
  const TempId fire_high = b.band(fire, want_above);
  b.digest_if(fire_low, kDigestEntropyLow, d, s1, t1);
  b.digest_if(fire_high, kDigestEntropyHigh, d, s1, t1);
  b.store_reg(regs.alerted, d, b.bor(al, fire));
  const TempId hot_old = b.load_reg(regs.hot_value, d);
  b.store_reg(regs.hot_value, d, b.select(fire, v, hot_old));
  return b.take();
}

Program build_reroute(const Stat4Registers& regs, const Stat4Config& cfg) {
  (void)cfg;
  ProgramBuilder b("reroute");
  const TempId d = b.param(kAdDist);
  const TempId alt_port_p1 = b.param(kAdAltPort);
  const TempId al = b.load_reg(regs.alerted, d);
  const TempId egress = b.load_field(FieldRef::kMetaEgressSpec);
  b.store_field(FieldRef::kMetaEgressSpec, b.select(al, alt_port_p1, egress));
  return b.take();
}

Program build_echo(const Stat4Registers& regs, const Stat4Config& cfg,
                   const BuildOptions& opt) {
  if (cfg.counter_size < 511) {
    throw std::invalid_argument(
        "stat4p4: echo needs counter_size >= 511 (payload range [-255,255])");
  }
  ProgramBuilder b("echo");
  const TempId zero = b.konst(0);
  const TempId one = b.konst(1);

  // The echo application statically tracks distribution 0.
  const TempId d = zero;
  const TempId base = zero;

  // v = (value + 255) & 0x3FF maps the signed payload onto [0, 510] even
  // though the wire carries it as a two's-complement 64-bit word.
  const TempId raw = b.load_field(FieldRef::kEchoValue);
  const TempId v = b.band(b.add(raw, b.konst(255)), b.konst(0x3FF));

  const FreqUpdate u = emit_freq_update(b, regs, cfg, d, base, v, opt.mul);

  // Report the tracked measures in the reply frame (Figure 5): the sd is
  // computed at read time — the lazy evaluation made visible.
  b.store_field(FieldRef::kEchoN, u.n);
  b.store_field(FieldRef::kEchoXsum, u.xsum);
  b.store_field(FieldRef::kEchoXsumsq, u.xsumsq);
  b.store_field(FieldRef::kEchoVar, u.var);
  b.store_field(FieldRef::kEchoSd, b.approx_sqrt(u.var));

  // Reflect the frame to its ingress port.
  const TempId inport = b.load_field(FieldRef::kMetaIngressPort);
  b.store_field(FieldRef::kMetaEgressSpec, b.add(inport, one));
  return b.take();
}

Program build_forward() {
  ProgramBuilder b("forward");
  const TempId port_plus_one = b.param(0);
  b.store_field(FieldRef::kMetaEgressSpec, port_plus_one);
  return b.take();
}

Program build_drop() {
  ProgramBuilder b("drop");
  const TempId zero = b.konst(0);
  b.store_field(FieldRef::kMetaEgressSpec, zero);
  return b.take();
}

Program build_noop() {
  ProgramBuilder b("noop");
  (void)b.konst(0);
  return b.take();
}

}  // namespace stat4p4
