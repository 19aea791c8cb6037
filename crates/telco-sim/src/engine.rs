//! The per-UE-day simulation engine.
//!
//! For each UE and study day the engine synthesizes a trajectory, walks it
//! against the radio topology, and turns every connected-mode sector
//! crossing into a full handover procedure: vertical-fallback decision
//! (coverage margin), failure injection, cause selection, duration
//! sampling, and the Fig. 1 message exchange observed by the core-network
//! probe. Side products are the §3.3 mobility metrics and the RAT
//! attach-time/traffic ledger.

// telco-lint: deny-panic

use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

use telco_devices::population::UeId;
use telco_devices::types::{DeviceType, RatSupport};
use telco_geo::coords::KmPoint;
use telco_mobility::metrics::DailyMobility;
use telco_mobility::schedule::DayOfWeek;
use telco_mobility::trajectory::{DayTrajectory, DAY_MS};
use telco_signaling::causes::CauseCode;
use telco_signaling::duration::DurationModel;
use telco_signaling::events::{rsrp_dbm, MobilityConfig};
use telco_signaling::failure::{FailureModel, HoContext};
use telco_signaling::messages::{Envelope, HoType};
use telco_signaling::state_machine::execute_into;
use telco_topology::elements::SectorId;
use telco_topology::rat::Rat;
use telco_trace::record::{HoOutcome, HoRecord};

use crate::config::SimConfig;
use crate::load::load_ratio;
use crate::output::{SimOutput, UeDayMobility};
use crate::world::World;

/// Daily traffic volume (UL MB, DL MB) per device type, calibrated so
/// legacy RATs end up carrying ≈5% of uplink and ≈2% of downlink (§4.1).
fn daily_volume_mb(device_type: DeviceType) -> (f64, f64) {
    match device_type {
        DeviceType::Smartphone => (60.0, 1_100.0),
        DeviceType::M2mIot => (6.0, 30.0),
        DeviceType::FeaturePhone => (4.0, 20.0),
    }
}

/// Reusable per-worker buffers for the per-UE-day hot loop. One scratch
/// lives on each worker thread; after a few warm-up UE-days its buffers
/// reach their working sizes and the steady-state loop performs no heap
/// allocation (asserted by the `zero_alloc` counting-allocator test).
#[derive(Debug)]
pub struct SimScratch {
    /// Trajectory waypoints, rewritten in place each day.
    trajectory: DayTrajectory,
    /// Sampled `(ms-of-day, position)` walk points.
    samples: Vec<(u32, KmPoint)>,
    /// Daily sector-visit accumulator.
    mobility: DailyMobility,
    /// Distinct-sector counting scratch.
    sector_ids: Vec<u32>,
    /// Handover message-log buffer (bounded by the longest procedure).
    log: Vec<Envelope>,
}

impl SimScratch {
    /// Fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        SimScratch {
            trajectory: DayTrajectory::stationary(KmPoint::new(0.0, 0.0)),
            samples: Vec::new(),
            mobility: DailyMobility::new(),
            sector_ids: Vec::new(),
            log: Vec::new(),
        }
    }
}

impl Default for SimScratch {
    fn default() -> Self {
        Self::new()
    }
}

// telco-lint: deny-alloc(begin)
/// Simulate one UE for one study day, appending to `out`. `scratch` holds
/// the reused working buffers; any instance works, but reusing one across
/// calls keeps the loop allocation-free.
pub fn simulate_ue_day(
    world: &World,
    cfg: &SimConfig,
    ue: UeId,
    day: u32,
    scratch: &mut SimScratch,
    out: &mut SimOutput,
) {
    let attrs = *world.ue(ue);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.ue_day_seed(ue.0, day));
    let dow = DayOfWeek::from_study_day(day);
    let attach_ms = attrs.attach_hours as f64 * 3_600_000.0;
    let (ul, dl) = daily_volume_mb(attrs.device_type);
    let vol_jitter: f64 = rng.random_range(0.6..1.4);
    let (ul, dl) = (ul * vol_jitter, dl * vol_jitter);

    DayTrajectory::generate_into(
        attrs.profile,
        attrs.home,
        Some(attrs.work),
        dow,
        &world.schedule,
        &world.country.bounds,
        &mut rng,
        &mut scratch.trajectory,
    );

    if !attrs.rat_support.is_4g_capable() {
        simulate_legacy_ue_day(
            world,
            ue,
            day,
            &attrs.rat_support,
            attach_ms,
            ul,
            dl,
            cfg,
            scratch,
            out,
        );
        return;
    }

    // --- 4G/5G-NSA UE: the EPC sees its handovers. ---
    // Borrow the scratch buffers disjointly for the rest of the day.
    let SimScratch { trajectory, samples, mobility, sector_ids, log } = scratch;
    sample_points_into(trajectory, cfg.step_km, samples);
    let mobility_cfg = MobilityConfig::default();
    let failure_model = FailureModel::new(cfg.failure);
    let durations = cfg.durations;

    mobility.clear();
    // `camp` is the UE's camping state as one `(face, attached)` pair:
    // `face` is the geometric serving face (crossing detection) and
    // `attached` the sector actually camped on (which may be a different
    // carrier of the same face after load balancing). Keeping them in a
    // single Option makes "attached whenever a face is set" hold by
    // construction instead of by `expect`.
    let mut camp: Option<(SectorId, SectorId)> = None;
    let mut prev_t: u32 = 0;
    let mut prev_slot: usize = 0;
    let mut suppressed_until: u32 = 0;
    let mut hos: u32 = 0;
    let mut hofs: u32 = 0;
    let mut messages: u32 = 0;
    let mut legacy_ms: f64 = 0.0;

    let duty = match attrs.device_type {
        DeviceType::Smartphone => cfg.session.smartphone_duty,
        DeviceType::M2mIot => cfg.session.m2m_duty,
        DeviceType::FeaturePhone => cfg.session.feature_duty,
    };
    let voice_prob = match attrs.device_type {
        DeviceType::Smartphone => cfg.session.smartphone_voice,
        DeviceType::M2mIot => 0.0,
        DeviceType::FeaturePhone => cfg.session.feature_voice,
    };

    let mut serving_cache = ServingCache::new(Rat::G4);
    for &(t, pos) in samples.iter() {
        if t < suppressed_until {
            prev_t = t;
            continue;
        }
        let slot = (t / 1_800_000) as usize;
        let Some(serving) =
            serving_cache.lookup(world, &pos).map(|sid| energy_redirect(world, sid, day, slot))
        else {
            prev_t = t;
            continue;
        };
        let site = world.topology.site(world.topology.sector(serving).site);
        let dt = (t - prev_t) as f64;

        match camp {
            None => {
                // Initial (or post-fallback) attach: no handover recorded.
                camp = Some((serving, serving));
                mobility.record(serving.0, site.position, dt.max(1.0));
            }
            Some((face, mut attached)) if face == serving => {
                // Camping on the same face: the site may rebalance the UE
                // onto another carrier / co-sited sector — an intra-site
                // handover (this is what lifts connected smartphones to the
                // paper's 22 visited sectors per day, Fig. 10a).
                // The manufacturer's mobility-management implementation
                // scales how often its devices are rebalanced (Fig. 11:
                // Simcom modules hand over ~4× their district peers).
                // telco-lint: allow(index): device_type.index() is 0..3 by the enum's definition
                let p_cc = (cfg.session.carrier_change_per_slot[attrs.device_type.index()]
                    * world.schedule.intensity(dow, slot)
                    * attrs.manufacturer.ho_volume_factor())
                .min(1.0);
                if slot != prev_slot && rng.random::<f64>() < p_cc {
                    if let Some(sib) = sibling_sector(world, attached, &mut rng) {
                        let (failed, cause, duration, msg_count) = run_handover(
                            world,
                            &failure_model,
                            &durations,
                            cfg,
                            attached,
                            sib,
                            HoType::Intra4g5g,
                            false,
                            attrs.device_type,
                            attrs.manufacturer,
                            attrs.srvcc_subscribed,
                            dow,
                            slot,
                            day,
                            &mut rng,
                            log,
                            out,
                        );
                        // telco-lint: allow(alloc): amortized append into caller-reserved output, pinned by tests/zero_alloc.rs
                        out.dataset.push(HoRecord {
                            timestamp_ms: day as u64 * DAY_MS as u64 + t as u64,
                            ue,
                            source_sector: attached,
                            target_sector: sib,
                            source_rat: world.topology.sector(attached).rat,
                            target_rat: world.topology.sector(sib).rat,
                            outcome: if failed { HoOutcome::Failure } else { HoOutcome::Success },
                            cause,
                            duration_ms: whole_ms(duration),
                            srvcc: false,
                            messages: msg_count,
                        });
                        hos += 1;
                        hofs += u32::from(failed);
                        messages += msg_count as u32;
                        if !failed {
                            attached = sib;
                        }
                    }
                }
                let att_site = world.topology.site(world.topology.sector(attached).site);
                mobility.record(attached.0, att_site.position, dt);
                camp = Some((face, attached));
            }
            Some((_, old)) => {
                // Sector crossing: the UE leaves its attached sector.
                let factor = attrs.manufacturer.ho_volume_factor();
                let record_prob = (duty * factor).min(1.0);
                if rng.random::<f64>() >= record_prob {
                    // Idle-mode reselection: sector changes, no HO record.
                    camp = Some((serving, serving));
                    mobility.record(serving.0, site.position, dt);
                    prev_t = t;
                    prev_slot = slot;
                    continue;
                }

                // Vertical-fallback decision from the cell-edge depth:
                // distance to the new site relative to the local typical
                // cell radius, scaled by the area-type base rate. The RSRP
                // margin (A2 semantics) is tracked for the measurement
                // report but the probability is ratio-driven, keeping the
                // model invariant to the deployment's absolute density.
                let urban = world.area_type(site.postcode) == telco_geo::postcode::AreaType::Urban;
                let dist = pos.distance_km(&site.position);
                let _a2 = rsrp_dbm(dist, Rat::G4, urban) < mobility_cfg.a2_threshold_dbm;
                let r = dist / world.cell_radius(site.postcode).max(0.05);
                let base = if urban { cfg.coverage.urban_base } else { cfg.coverage.rural_base };
                // Denser districts keep UEs on 4G/5G (capital ≥99.9% intra);
                // sparse ones lean on legacy coverage (Fig. 9).
                let density = world.country.district(site.district).population_density().max(1.0);
                let density_factor = (cfg.coverage.density_ref / density)
                    .powf(cfg.coverage.density_exponent)
                    .clamp(0.05, 8.0);
                let p_vert =
                    (base * density_factor * ((r - 1.0) * cfg.coverage.r_sensitivity).exp())
                        .clamp(0.0, cfg.coverage.max_prob);
                let mut vertical_target: Option<(SectorId, Rat)> = None;
                if rng.random::<f64>() < p_vert {
                    let want_2g = rng.random::<f64>() < cfg.coverage.two_g_share;
                    if !want_2g {
                        if let Some(s3) = world.topology.serving_sector(&pos, Rat::G3) {
                            vertical_target = Some((s3, Rat::G3));
                        }
                    }
                    if vertical_target.is_none() {
                        if let Some(s2) = world.topology.serving_sector(&pos, Rat::G2) {
                            vertical_target = Some((s2, Rat::G2));
                        } else if let Some(s3) = world.topology.serving_sector(&pos, Rat::G3) {
                            vertical_target = Some((s3, Rat::G3));
                        }
                    }
                }

                let (target_sector, target_rat) = vertical_target.unwrap_or((serving, Rat::G4));
                let ho_type = HoType::from_target_rat(target_rat);
                let srvcc = ho_type.is_vertical() && rng.random::<f64>() < voice_prob;

                let (failed, cause, duration, msg_count) = run_handover(
                    world,
                    &failure_model,
                    &durations,
                    cfg,
                    old,
                    target_sector,
                    ho_type,
                    srvcc,
                    attrs.device_type,
                    attrs.manufacturer,
                    attrs.srvcc_subscribed,
                    dow,
                    slot,
                    day,
                    &mut rng,
                    log,
                    out,
                );
                let timestamp_ms = day as u64 * DAY_MS as u64 + t as u64;
                // telco-lint: allow(alloc): amortized append into caller-reserved output, pinned by tests/zero_alloc.rs
                out.dataset.push(HoRecord {
                    timestamp_ms,
                    ue,
                    source_sector: old,
                    target_sector,
                    source_rat: world.topology.sector(old).rat,
                    target_rat,
                    outcome: if failed { HoOutcome::Failure } else { HoOutcome::Success },
                    cause,
                    duration_ms: whole_ms(duration),
                    srvcc,
                    messages: msg_count,
                });
                hos += 1;
                hofs += u32::from(failed);
                messages += msg_count as u32;

                // Manufacturer chattiness: extra handover signaling
                // (ping-pong re-attempts) for factor > 1 implementations.
                let mut extra = factor - 1.0;
                while extra > 0.0 && rng.random::<f64>() < extra.min(1.0) {
                    let (xfailed, xcause, xduration, xmsgs) = run_handover(
                        world,
                        &failure_model,
                        &durations,
                        cfg,
                        target_sector,
                        old,
                        HoType::Intra4g5g,
                        false,
                        attrs.device_type,
                        attrs.manufacturer,
                        attrs.srvcc_subscribed,
                        dow,
                        slot,
                        day,
                        &mut rng,
                        log,
                        out,
                    );
                    // telco-lint: allow(alloc): amortized append into caller-reserved output, pinned by tests/zero_alloc.rs
                    out.dataset.push(HoRecord {
                        // Clamp inside the day (a crossing at 23:59:59.999
                        // must not bleed into the next study day).
                        timestamp_ms: (timestamp_ms + 1).min((day as u64 + 1) * DAY_MS as u64 - 1),
                        ue,
                        source_sector: target_sector,
                        target_sector: old,
                        source_rat: world.topology.sector(target_sector).rat,
                        target_rat: world.topology.sector(old).rat,
                        outcome: if xfailed { HoOutcome::Failure } else { HoOutcome::Success },
                        cause: xcause,
                        duration_ms: whole_ms(xduration),
                        srvcc: false,
                        messages: xmsgs,
                    });
                    hos += 1;
                    hofs += u32::from(xfailed);
                    messages += xmsgs as u32;
                    extra -= 1.0;
                }

                if ho_type.is_vertical() && !failed {
                    // Camp on the legacy RAT for a while; the EPC loses
                    // sight of the UE until it returns.
                    let dwell = cfg.coverage.fallback_dwell_ms * rng.random_range(0.4..1.8);
                    let tgt_site = world.topology.site(world.topology.sector(target_sector).site);
                    mobility.record(target_sector.0, tgt_site.position, dwell);
                    legacy_ms += dwell;
                    suppressed_until = t.saturating_add(dwell as u32).min(DAY_MS - 1);
                    camp = None;
                } else {
                    // A failed vertical attempt leaves the UE on 4G; either
                    // way the EPC anchor is the new geometric face.
                    camp = Some((serving, serving));
                    mobility.record(serving.0, site.position, dt);
                }
            }
        }
        prev_t = t;
        prev_slot = slot;
    }

    // Ledger: EPC time minus legacy camping, traffic proportional to time
    // with legacy throughput discounted.
    let legacy_ms = legacy_ms.min(attach_ms * 0.8);
    let legacy_frac = legacy_ms / attach_ms.max(1.0);
    let legacy_rat =
        if attrs.rat_support == RatSupport::UpTo5g || attrs.rat_support == RatSupport::UpTo4g {
            Rat::G3
        } else {
            Rat::G2
        };
    out.ledger.add(legacy_rat, legacy_ms, ul * legacy_frac * 0.3, dl * legacy_frac * 0.3);
    out.ledger.add(
        Rat::G4,
        (attach_ms - legacy_ms).max(0.0),
        ul * (1.0 - legacy_frac * 0.3),
        dl * (1.0 - legacy_frac * 0.3),
    );

    // telco-lint: allow(alloc): amortized append into caller-reserved output, pinned by tests/zero_alloc.rs
    out.mobility.push(UeDayMobility {
        ue,
        day,
        sectors: mobility.distinct_sectors_into(sector_ids).min(u16::MAX as usize) as u16,
        gyration_km: mobility.gyration_km() as f32,
        hos: hos.min(u16::MAX as u32) as u16,
        hofs: hofs.min(u16::MAX as u32) as u16,
        messages,
    });
}
// telco-lint: deny-alloc(end)

/// A sampled duration as the operator's probes record it: whole
/// milliseconds, rounded half away from zero. The engine keeps the `f64`
/// for the message layout, so rounding changes no other column and draws
/// nothing from the RNG.
#[inline]
fn whole_ms(duration_ms: f64) -> u32 {
    duration_ms.round() as u32
}

/// Run one handover through the failure model and the state machine;
/// returns `(failed, cause, duration_ms, messages)`. `log` is the reused
/// message-log buffer (overwritten each run).
#[allow(clippy::too_many_arguments)]
fn run_handover(
    world: &World,
    failure_model: &FailureModel,
    durations: &DurationModel,
    _cfg: &SimConfig,
    source: SectorId,
    target: SectorId,
    ho_type: HoType,
    srvcc: bool,
    device_type: DeviceType,
    manufacturer: telco_devices::types::Manufacturer,
    srvcc_subscribed: bool,
    dow: DayOfWeek,
    slot: usize,
    day: u32,
    rng: &mut ChaCha8Rng,
    log: &mut Vec<Envelope>,
    out: &mut SimOutput,
) -> (bool, Option<CauseCode>, f64, u16) {
    let source_pc = world.topology.sector_postcode(source);
    let area = world.area_type(source_pc);
    let target_pc = world.topology.sector_postcode(target);
    let target_area = world.area_type(target_pc);
    let load = load_ratio(&world.schedule, target, target_area, dow, slot, day);
    let ctx = HoContext {
        ho_type,
        area,
        vendor: world.topology.sector(source).vendor,
        device_type,
        manufacturer,
        load_ratio: load,
        srvcc,
        srvcc_subscribed,
    };
    let failed = failure_model.roll_failure(&ctx, rng);
    let (cause, duration) = if failed {
        let cause = failure_model.sample_cause(&ctx, rng);
        let duration = durations.sample_failure(cause.as_principal(), rng);
        (Some(cause), duration)
    } else {
        (None, durations.sample_success(ho_type, rng))
    };
    execute_into(ho_type, srvcc, cause, duration, log);
    out.core.observe_run(log);
    (failed, cause, duration, log.len() as u16)
}

/// Legacy-only UE: contributes attach time, traffic, and mobility metrics
/// on its ceiling RAT, but no EPC handover records (its mobility lives in
/// the SGSN/MSC, outside the paper's HO analysis scope — §8).
#[allow(clippy::too_many_arguments)]
fn simulate_legacy_ue_day(
    world: &World,
    ue: UeId,
    day: u32,
    support: &RatSupport,
    attach_ms: f64,
    ul: f64,
    dl: f64,
    cfg: &SimConfig,
    scratch: &mut SimScratch,
    out: &mut SimOutput,
) {
    let rat = if *support == RatSupport::UpTo2g { Rat::G2 } else { Rat::G3 };
    out.ledger.add(rat, attach_ms, ul, dl);

    let SimScratch { trajectory, samples, mobility, sector_ids, .. } = scratch;
    mobility.clear();
    sample_points_into(trajectory, cfg.step_km.max(0.5), samples);
    let mut prev_t = 0u32;
    let mut serving_cache = ServingCache::new(rat);
    for &(t, pos) in samples.iter() {
        if let Some(s) = serving_cache.lookup(world, &pos) {
            let site = world.topology.site(world.topology.sector(s).site);
            mobility.record(s.0, site.position, (t - prev_t).max(1) as f64);
        }
        prev_t = t;
    }
    out.mobility.push(UeDayMobility {
        ue,
        day,
        sectors: mobility.distinct_sectors_into(sector_ids).min(u16::MAX as usize) as u16,
        gyration_km: mobility.gyration_km() as f32,
        hos: 0,
        hofs: 0,
        messages: 0,
    });
}

/// A random co-sited same-RAT sector other than `attached` (a different
/// carrier or face), for intra-site load-balancing handovers. Candidates
/// come from the world's precomputed sibling table; the uniform pick
/// consumes one RNG draw, exactly as the on-the-fly filter used to.
fn sibling_sector(world: &World, attached: SectorId, rng: &mut ChaCha8Rng) -> Option<SectorId> {
    let candidates = world.siblings.get(attached);
    if candidates.is_empty() {
        None
    } else {
        candidates.get(rng.random_range(0..candidates.len())).copied()
    }
}

/// Apply the energy-saving redirect to a geometrically serving sector:
/// an off booster hands its traffic to an active co-sited 4G face when
/// one exists.
fn energy_redirect(world: &World, sid: SectorId, day: u32, slot: usize) -> SectorId {
    let sector = world.topology.sector(sid);
    if world.energy.is_active(sector, day, slot) {
        return sid;
    }
    // Redirect to an active co-sited 4G face (precomputed candidate list).
    world
        .cosited_4g
        .get(sid)
        .iter()
        .copied()
        .find(|&s| world.energy.is_active(world.topology.sector(s), day, slot))
        .unwrap_or(sid)
}

/// Memoizes the geometric serving-sector query on exact position repeats.
///
/// Dwell samples re-emit the identical position once per half-hour slot,
/// so a one-entry cache removes the grid search for every stationary
/// stretch of a trajectory — the common case for most of the device mix —
/// while staying a pure function of position (bit-identical results).
struct ServingCache {
    rat: Rat,
    last: Option<(KmPoint, Option<SectorId>)>,
}

impl ServingCache {
    fn new(rat: Rat) -> Self {
        ServingCache { rat, last: None }
    }

    fn lookup(&mut self, world: &World, pos: &KmPoint) -> Option<SectorId> {
        if let Some((p, hit)) = self.last {
            if p == *pos {
                return hit;
            }
        }
        let miss = world.topology.serving_sector(pos, self.rat);
        self.last = Some((*pos, miss));
        miss
    }
}

/// Sample a trajectory into `(ms-of-day, position)` points: dwell
/// endpoints plus `step_km`-spaced points along moving segments, ending
/// with the end-of-day position.
pub fn sample_points(trajectory: &DayTrajectory, step_km: f64) -> Vec<(u32, KmPoint)> {
    let mut out = Vec::new();
    sample_points_into(trajectory, step_km, &mut out);
    out
}

/// [`sample_points`] into a reused buffer (cleared first), so walking many
/// UE-days does not allocate once the buffer reaches its working size.
pub fn sample_points_into(trajectory: &DayTrajectory, step_km: f64, out: &mut Vec<(u32, KmPoint)>) {
    // telco-lint: allow(panic): API-misuse guard at the entry boundary; every caller passes a fixed positive config value
    assert!(step_km > 0.0, "step must be positive");
    let wps = trajectory.waypoints();
    out.clear();
    let (Some(first), Some(last)) = (wps.first(), wps.last()) else {
        return; // an empty trajectory samples to nothing
    };
    out.reserve(wps.len() * 4);
    out.push((first.time_ms, first.pos));
    for (a, b) in wps.iter().zip(wps.iter().skip(1)) {
        let dist = a.pos.distance_km(&b.pos);
        if dist < 1e-9 {
            // Dwell: sample each 30-minute slot boundary so time-dependent
            // behaviour (carrier changes, energy policy) gets its chances.
            let mut t = (a.time_ms / 1_800_000 + 1) * 1_800_000;
            while t < b.time_ms {
                out.push((t, a.pos));
                t += 1_800_000;
            }
            out.push((b.time_ms, b.pos));
            continue;
        }
        let n = (dist / step_km).ceil() as u32;
        for k in 1..=n {
            let f = k as f64 / n as f64;
            let t = a.time_ms + ((b.time_ms - a.time_ms) as f64 * f) as u32;
            let p =
                KmPoint::new(a.pos.x + (b.pos.x - a.pos.x) * f, a.pos.y + (b.pos.y - a.pos.y) * f);
            out.push((t, p));
        }
    }
    if last.time_ms < DAY_MS - 1 {
        let mut t = (last.time_ms / 1_800_000 + 1) * 1_800_000;
        while t < DAY_MS - 1 {
            out.push((t, last.pos));
            t += 1_800_000;
        }
        out.push((DAY_MS - 1, last.pos));
    }
    // Deduplicate identical timestamps, keeping the later position.
    out.dedup_by(|b, a| {
        if a.0 == b.0 {
            a.1 = b.1;
            true
        } else {
            false
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use telco_mobility::trajectory::Waypoint;

    #[test]
    fn sample_points_cover_segments() {
        let t = DayTrajectory::from_waypoints(vec![
            Waypoint { time_ms: 0, pos: KmPoint::new(0.0, 0.0) },
            Waypoint { time_ms: 3_600_000, pos: KmPoint::new(0.0, 0.0) },
            Waypoint { time_ms: 7_200_000, pos: KmPoint::new(3.0, 0.0) },
        ]);
        let pts = sample_points(&t, 0.5);
        // Dwell endpoint + 6 movement steps + end-of-day marker.
        assert!(pts.len() >= 8, "got {} points", pts.len());
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(pts.last().unwrap().0, DAY_MS - 1);
        // Spatial spacing honoured.
        for w in pts.windows(2) {
            assert!(w[0].1.distance_km(&w[1].1) <= 0.5 + 1e-9);
        }
    }

    #[test]
    fn stationary_trajectory_samples_every_slot() {
        let t = DayTrajectory::stationary(KmPoint::new(5.0, 5.0));
        let pts = sample_points(&t, 0.25);
        // One point per 30-minute slot boundary plus the two endpoints.
        assert!((47..=49).contains(&pts.len()), "got {}", pts.len());
        assert!(pts.iter().all(|&(_, p)| p == KmPoint::new(5.0, 5.0)));
    }

    #[test]
    fn engine_produces_records_for_a_tiny_world() {
        let cfg = SimConfig::tiny();
        let world = World::build(&cfg);
        let mut out = SimOutput::new(cfg.n_days);
        let mut scratch = SimScratch::new();
        for ue in 0..world.n_ues() {
            simulate_ue_day(&world, &cfg, UeId(ue as u32), 0, &mut scratch, &mut out);
        }
        assert!(!out.dataset.is_empty(), "no handovers generated");
        assert_eq!(out.mobility.len(), world.n_ues());
        // The probe saw every run's messages.
        assert!(out.core.total_messages() > out.dataset.len() as u64 * 5);
        // Attach time was ledgered on several RATs.
        assert!(out.ledger.time_shares()[Rat::G4.index()] > 0.5);
    }

    #[test]
    fn engine_is_deterministic() {
        let cfg = SimConfig::tiny();
        let world = World::build(&cfg);
        let mut a = SimOutput::new(cfg.n_days);
        let mut b = SimOutput::new(cfg.n_days);
        // Distinct scratch instances (one warm, one fresh per call) must
        // not change the output.
        let mut scratch = SimScratch::new();
        for ue in 0..50 {
            simulate_ue_day(&world, &cfg, UeId(ue), 0, &mut scratch, &mut a);
            simulate_ue_day(&world, &cfg, UeId(ue), 0, &mut SimScratch::new(), &mut b);
        }
        assert_eq!(a.dataset.records(), b.dataset.records());
        assert_eq!(a.mobility, b.mobility);
    }

    #[test]
    fn legacy_ues_produce_no_epc_records() {
        let cfg = SimConfig::tiny();
        let world = World::build(&cfg);
        let mut out = SimOutput::new(cfg.n_days);
        let mut scratch = SimScratch::new();
        for ue in 0..world.n_ues() {
            let attrs = world.ue(UeId(ue as u32));
            if !attrs.rat_support.is_4g_capable() {
                simulate_ue_day(&world, &cfg, UeId(ue as u32), 0, &mut scratch, &mut out);
            }
        }
        assert!(out.dataset.is_empty(), "legacy UEs must not appear in the EPC trace");
        assert!(!out.mobility.is_empty(), "legacy UEs still have mobility rows");
        assert!(out.mobility.iter().all(|m| m.hos == 0));
    }
}
