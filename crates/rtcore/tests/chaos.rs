//! Fault-injection tests for the rtcore layer, isolated in their own
//! test binary (chaos schedules and the serving mode are process-global
//! state the crate's other tests must never share a process with).

use std::sync::{Mutex, PoisonError};

use geom::{Point, Ray, Rect};
use rtcore::{BuildOptions, Device, Gas, HitContext, Ias, Instance, IsResult, RtProgram};
use std::sync::Arc;

/// Serializes the tests in this binary: schedules and the serving mode
/// are process-global.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn boxes(n: usize) -> Vec<Rect<f32, 3>> {
    (0..n)
        .map(|i| {
            let x = (i % 10) as f32 * 2.0;
            let y = (i / 10) as f32 * 2.0;
            Rect::xyzxyz(x, y, -0.5, x + 1.0, y + 1.0, 0.5)
        })
        .collect()
}

struct CountHits;

impl RtProgram<f32> for CountHits {
    type Payload = (Point<f32, 3>, u64);

    fn intersection(
        &self,
        ctx: &HitContext<'_, f32>,
        payload: &mut Self::Payload,
    ) -> IsResult<f32> {
        if ctx.aabb.contains_point(&payload.0) {
            payload.1 += 1;
        }
        IsResult::Ignore
    }
}

fn probe_all(device: &Device, gas: &Gas<f32>) -> rtcore::LaunchReport {
    device.launch::<f32, _>(100, |i, session| {
        let x = (i % 10) as f32 * 2.0 + 0.5;
        let y = (i / 10) as f32 * 2.0 + 0.5;
        let mut payload = (Point::xyz(x, y, 0.0), 0u64);
        let ray = Ray::point_probe(payload.0);
        session.trace(gas, &CountHits, &ray, &mut payload);
        assert_eq!(payload.1, 1, "probe {i} must hit its own box");
    })
}

#[test]
fn injected_gas_build_failure_is_typed_and_transient() {
    let _guard = serial();
    chaos::with_faults(chaos::Schedule::new().fail("rtcore.gas_build", 0), || {
        let err = Gas::build(boxes(10), BuildOptions::default()).unwrap_err();
        assert_eq!(
            err,
            rtcore::AccelError::Injected {
                point: "rtcore.gas_build"
            }
        );
        assert_eq!(err.to_string(), "injected fault at rtcore.gas_build");
        // Hit 1 has no rule: the retry succeeds — the fault was transient.
        let gas = Gas::build(boxes(10), BuildOptions::default()).unwrap();
        assert_eq!(gas.len(), 10);
    });
}

#[test]
fn injected_ias_build_failure_is_typed() {
    let _guard = serial();
    let gas = Arc::new(Gas::build(boxes(4), BuildOptions::default()).unwrap());
    chaos::with_faults(chaos::Schedule::new().fail("rtcore.ias_build", 0), || {
        let instances = vec![Instance::identity(Arc::clone(&gas), 7)];
        let err = Ias::build(&instances).unwrap_err();
        assert_eq!(
            err,
            rtcore::AccelError::Injected {
                point: "rtcore.ias_build"
            }
        );
        assert!(Ias::build(&instances).is_ok());
    });
}

#[test]
fn injected_launch_slow_charges_virtual_device_time() {
    let _guard = serial();
    let gas = Gas::build(boxes(100), BuildOptions::default()).unwrap();
    let device = Device::new();
    let base = probe_all(&device, &gas).device_time;
    const EXTRA_NS: u64 = 5_000_000;
    let slowed = chaos::with_faults(
        chaos::Schedule::new().slow("rtcore.launch", 0, EXTRA_NS),
        || probe_all(&device, &gas).device_time,
    );
    // Device time is fully modelled, so the charge is exact.
    assert_eq!(
        slowed,
        base + std::time::Duration::from_nanos(EXTRA_NS),
        "slow fault must charge exactly its virtual nanoseconds"
    );
}

#[test]
fn injected_launch_panic_reaches_the_caller() {
    let _guard = serial();
    let gas = Gas::build(boxes(100), BuildOptions::default()).unwrap();
    let device = Device::new();
    let err = chaos::with_faults(chaos::Schedule::new().panic("rtcore.launch", 1), || {
        probe_all(&device, &gas); // hit 0: clean
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            probe_all(&device, &gas) // hit 1: boom
        }))
        .unwrap_err()
    });
    assert!(chaos::is_injected_panic(err.as_ref()));
    // The device is stateless: the next launch works.
    assert_eq!(probe_all(&device, &gas).totals.rays, 100);
}

#[test]
fn serving_mode_does_not_change_traversal() {
    let _guard = serial();
    struct Restore(obs::ServingMode);
    impl Drop for Restore {
        fn drop(&mut self) {
            obs::health::set_serving_mode(self.0);
        }
    }
    let _restore = Restore(obs::health::set_serving_mode(obs::ServingMode::Normal));

    // Serving modes gate admission and maintenance in the core layer;
    // a launch walks the same structure in every mode. `probe_all`
    // asserts each probe hits its own box, so hits are covered too.
    let gas = Gas::build(boxes(100), BuildOptions::default()).unwrap();
    let device = Device::new();
    let normal = probe_all(&device, &gas);
    assert!(normal.totals.wide_nodes_visited > 0);
    for mode in [obs::ServingMode::Degraded, obs::ServingMode::ReadOnly] {
        obs::health::set_serving_mode(mode);
        let report = probe_all(&device, &gas);
        assert_eq!(report.totals, normal.totals, "{mode:?}");
        assert_eq!(report.device_time, normal.device_time, "{mode:?}");
    }
}
