//! Circuit profiles mirroring the rows of the paper's experiment tables.
//!
//! Each profile records the flip-flop and gate count of the original benchmark
//! (Table 3 of the paper) and which generator class substitutes it (see the
//! [crate docs](crate)). [`build_profile`] instantiates the profile at a given
//! scale: scale 1.0 matches the original size, smaller scales keep the
//! experiment harness fast while preserving the relative ordering of circuit
//! sizes.

use crate::industrial::{industrial_circuit, IndustrialConfig};
use crate::retimed::{retimed_circuit, RetimedConfig};
use crate::synth::{synthesize, SynthConfig};
use sla_netlist::Netlist;

/// Which generator substitutes the original circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CircuitClass {
    /// ISCAS-89/93 style benchmark: plain synthetic generator.
    Benchmark,
    /// Retimed circuit with a low density of encoding.
    Retimed,
    /// Industrial circuit with multiple clock domains and partial set/reset.
    Industrial,
}

/// One row of Table 3: the original circuit's size and its substitute class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitProfile {
    /// Benchmark name as used in the paper.
    pub name: &'static str,
    /// Flip-flop count reported in Table 3.
    pub flip_flops: usize,
    /// Gate count reported in Table 3.
    pub gates: usize,
    /// Substitute generator class.
    pub class: CircuitClass,
}

impl CircuitProfile {
    const fn new(name: &'static str, flip_flops: usize, gates: usize, class: CircuitClass) -> Self {
        CircuitProfile {
            name,
            flip_flops,
            gates,
            class,
        }
    }
}

/// All 29 rows of Table 3 of the paper.
pub const TABLE3_PROFILES: &[CircuitProfile] = &[
    CircuitProfile::new("s382", 21, 158, CircuitClass::Benchmark),
    CircuitProfile::new("s386", 6, 159, CircuitClass::Benchmark),
    CircuitProfile::new("s400", 21, 164, CircuitClass::Benchmark),
    CircuitProfile::new("s444", 21, 181, CircuitClass::Benchmark),
    CircuitProfile::new("s641", 19, 377, CircuitClass::Benchmark),
    CircuitProfile::new("s713", 19, 393, CircuitClass::Benchmark),
    CircuitProfile::new("s953", 29, 424, CircuitClass::Benchmark),
    CircuitProfile::new("s967", 29, 395, CircuitClass::Benchmark),
    CircuitProfile::new("s1196", 18, 529, CircuitClass::Benchmark),
    CircuitProfile::new("s1238", 18, 508, CircuitClass::Benchmark),
    CircuitProfile::new("s1269", 37, 569, CircuitClass::Benchmark),
    CircuitProfile::new("s1423", 74, 657, CircuitClass::Benchmark),
    CircuitProfile::new("s3330", 132, 1789, CircuitClass::Benchmark),
    CircuitProfile::new("s3384", 183, 1685, CircuitClass::Benchmark),
    CircuitProfile::new("s4863", 104, 2342, CircuitClass::Benchmark),
    CircuitProfile::new("s5378", 179, 2779, CircuitClass::Benchmark),
    CircuitProfile::new("s6669", 239, 3080, CircuitClass::Benchmark),
    CircuitProfile::new("s9234", 228, 5597, CircuitClass::Benchmark),
    CircuitProfile::new("s13207", 638, 7951, CircuitClass::Benchmark),
    CircuitProfile::new("s15850", 597, 9772, CircuitClass::Benchmark),
    CircuitProfile::new("s38417", 1636, 22179, CircuitClass::Benchmark),
    CircuitProfile::new("s38584", 1452, 19253, CircuitClass::Benchmark),
    CircuitProfile::new("s510jcsrre", 26, 243, CircuitClass::Retimed),
    CircuitProfile::new("s510josrre", 28, 243, CircuitClass::Retimed),
    CircuitProfile::new("s832jcsrre", 27, 195, CircuitClass::Retimed),
    CircuitProfile::new("scfjisdre", 20, 764, CircuitClass::Retimed),
    CircuitProfile::new("indust1", 460, 8693, CircuitClass::Industrial),
    CircuitProfile::new("indust2", 7068, 63156, CircuitClass::Industrial),
    CircuitProfile::new("indust3", 15689, 681595, CircuitClass::Industrial),
];

/// The seven circuits of Table 4 (tie gates vs. FIRES).
pub const TABLE4_PROFILES: &[&str] = &[
    "s5378", "s3330", "s9234", "s13207", "s15850", "s38417", "s38584",
];

/// The eleven circuits of Table 5 (ATPG with and without learning).
pub const TABLE5_PROFILES: &[&str] = &[
    "s1423",
    "s3330",
    "s3384",
    "s4863",
    "s5378",
    "s6669",
    "s13207",
    "s510jcsrre",
    "s510josrre",
    "s832jcsrre",
    "scfjisdre",
];

/// Looks up a profile by its paper name.
pub fn profile_by_name(name: &str) -> Option<&'static CircuitProfile> {
    TABLE3_PROFILES.iter().find(|p| p.name == name)
}

/// Instantiates a profile at the given scale (`1.0` = the original size,
/// `0.1` = one tenth of the flip-flops and gates, never below a small floor).
pub fn build_profile(profile: &CircuitProfile, scale: f64) -> Netlist {
    let scale = scale.clamp(0.001, 4.0);
    let flip_flops = ((profile.flip_flops as f64 * scale).round() as usize).max(4);
    let gates = ((profile.gates as f64 * scale).round() as usize).max(16);
    let seed = name_seed(profile.name);
    match profile.class {
        CircuitClass::Benchmark => {
            synthesize(&SynthConfig::sized(profile.name, flip_flops, gates, seed))
        }
        CircuitClass::Retimed => {
            retimed_circuit(&RetimedConfig::sized(profile.name, flip_flops, gates, seed))
        }
        CircuitClass::Industrial => industrial_circuit(&IndustrialConfig::sized(
            profile.name,
            flip_flops,
            gates,
            seed,
        )),
    }
}

/// Deterministic per-name seed (FNV-1a) so every profile gets its own but
/// reproducible circuit.
fn name_seed(name: &str) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for byte in name.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_has_all_29_rows() {
        assert_eq!(TABLE3_PROFILES.len(), 29);
        assert_eq!(
            TABLE3_PROFILES
                .iter()
                .filter(|p| p.class == CircuitClass::Retimed)
                .count(),
            4
        );
        assert_eq!(
            TABLE3_PROFILES
                .iter()
                .filter(|p| p.class == CircuitClass::Industrial)
                .count(),
            3
        );
    }

    #[test]
    fn table4_and_table5_reference_known_profiles() {
        for name in TABLE4_PROFILES.iter().chain(TABLE5_PROFILES.iter()) {
            assert!(profile_by_name(name).is_some(), "{name}");
        }
    }

    #[test]
    fn build_profile_scales_sizes() {
        let p = profile_by_name("s1423").unwrap();
        let full = build_profile(p, 1.0);
        let small = build_profile(p, 0.1);
        assert_eq!(full.num_sequential(), 74);
        assert!(small.num_sequential() < full.num_sequential());
        assert!(small.num_gates() < full.num_gates());
        assert!(full.validate().is_ok());
        assert!(small.validate().is_ok());
    }

    #[test]
    fn retimed_profiles_build_as_retimed_circuits() {
        let p = profile_by_name("s832jcsrre").unwrap();
        assert_eq!(p.class, CircuitClass::Retimed);
        let n = build_profile(p, 0.5);
        assert!(n.validate().is_ok());
        assert!(n.num_sequential() >= 4);
    }

    #[test]
    fn profiles_are_deterministic() {
        let p = profile_by_name("s400").unwrap();
        let a = build_profile(p, 0.5);
        let b = build_profile(p, 0.5);
        assert_eq!(
            sla_netlist::writer::write_bench(&a),
            sla_netlist::writer::write_bench(&b)
        );
    }
}
