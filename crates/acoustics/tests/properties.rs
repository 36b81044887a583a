//! Property-based tests for the acoustic substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use thrubarrier_acoustics::barrier::{Barrier, BarrierMaterial};
use thrubarrier_acoustics::loudspeaker::Loudspeaker;
use thrubarrier_acoustics::propagation;
use thrubarrier_acoustics::room::{Room, RoomId};
use thrubarrier_acoustics::scene::AcousticPath;
use thrubarrier_dsp::{gen, stats};

const MATERIALS: [BarrierMaterial; 4] = [
    BarrierMaterial::GlassWindow,
    BarrierMaterial::GlassWall,
    BarrierMaterial::WoodenDoor,
    BarrierMaterial::BrickWall,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn transmission_loss_is_positive_and_monotone_above_500(
        mat_idx in 0usize..4,
        f in 10.0f32..7_500.0,
    ) {
        let b = Barrier::new(MATERIALS[mat_idx]);
        let tl = b.transmission_loss_db(f);
        prop_assert!(tl > 0.0);
        if f > 500.0 {
            // Loss never decreases with frequency above the plateau knee.
            let tl_higher = b.transmission_loss_db(f + 200.0);
            prop_assert!(tl_higher + 1e-4 >= tl, "{f}: {tl} vs {tl_higher}");
        }
    }

    #[test]
    fn barrier_never_amplifies(mat_idx in 0usize..4, seed in 0u64..50) {
        let b = Barrier::new(MATERIALS[mat_idx]);
        let mut rng = StdRng::seed_from_u64(seed);
        let sig = gen::gaussian_noise(&mut rng, 0.1, 4_000);
        let out = b.transmit(&sig, 16_000);
        prop_assert!(stats::rms(&out) <= stats::rms(&sig) * 1.01);
    }

    #[test]
    fn spl_conversion_roundtrips(spl in 20.0f32..110.0) {
        let rms = propagation::spl_to_rms(spl);
        prop_assert!((propagation::rms_to_spl(rms) - spl).abs() < 1e-2);
    }

    #[test]
    fn farther_paths_are_quieter(
        d1 in 0.3f32..6.0,
        extra in 0.5f32..4.0,
        room_idx in 0usize..4,
    ) {
        let room = Room::paper_room(RoomId::all()[room_idx]);
        let sig = gen::sine(500.0, 0.2, 16_000, 0.2);
        let near = AcousticPath::direct(room.clone(), d1).transmit(&sig, 16_000);
        let far = AcousticPath::direct(room, d1 + extra).transmit(&sig, 16_000);
        prop_assert!(stats::rms(&far) < stats::rms(&near));
    }

    #[test]
    fn loudspeaker_output_is_finite_and_bounded(seed in 0u64..50, amp in 0.01f32..0.8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sig = gen::gaussian_noise(&mut rng, amp, 4_000);
        let out = Loudspeaker::sound_bar().play(&sig, 16_000);
        prop_assert!(out.iter().all(|v| v.is_finite()));
        // Soft clipping cannot grow the peak beyond the input's peak
        // (plus filter ringing headroom).
        prop_assert!(stats::peak(&out) < stats::peak(&sig) * 1.5);
    }

    #[test]
    fn positioned_reverb_preserves_direct_path(seed in 0u64..50, room_idx in 0usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let room = Room::paper_room(RoomId::all()[room_idx]);
        let mut sig = vec![0.0f32; 800];
        sig[0] = 1.0;
        let out = room.apply_reverb_positioned(&sig, 16_000, &mut rng);
        prop_assert!((out[0] - 1.0).abs() < 1e-5);
        prop_assert!(out.len() >= sig.len());
    }

    #[test]
    fn brick_is_always_the_hardest_barrier(f in 50.0f32..7_500.0) {
        let brick = Barrier::new(BarrierMaterial::BrickWall).transmission_loss_db(f);
        for m in [BarrierMaterial::GlassWindow, BarrierMaterial::WoodenDoor] {
            let other = Barrier::new(m).transmission_loss_db(f);
            prop_assert!(brick + 1e-3 >= other.min(brick), "{m:?} at {f}");
        }
        // And strictly hardest in the speech band.
        if f < 1_000.0 {
            let glass = Barrier::new(BarrierMaterial::GlassWindow).transmission_loss_db(f);
            prop_assert!(brick > glass);
        }
    }
}
