//! Fixtures shared by the property tests.

use seqlearn::netlist::{GateType, Netlist, NetlistBuilder};

/// A small random sequential circuit whose constant gates (`CONST0` and
/// `CONST1`) feed gates as well as flip-flops, so binary values exist before
/// any assignment and cross flip-flops into later frames. The generated
/// synthesis circuits have no constants.
///
/// Three primary inputs, two constants, `flip_flops` flip-flops (the first
/// captures a constant directly) and `gates` gates that read earlier
/// signals, with a quarter of all fanin picks going to a constant. Needs at
/// least one gate and one flip-flop.
pub fn constant_circuit(seed: u64, gates: usize, flip_flops: usize) -> Netlist {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xc0ff_ee00_d15e_a5e5;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    const FUNCTIONS: [GateType; 8] = [
        GateType::And,
        GateType::Nand,
        GateType::Or,
        GateType::Nor,
        GateType::Xor,
        GateType::Xnor,
        GateType::Not,
        GateType::Buf,
    ];
    const CONSTANTS: [&str; 2] = ["k0", "k1"];

    let mut b = NetlistBuilder::new(format!("consts{seed}"));
    let mut signals: Vec<String> = Vec::new();
    for i in 0..3 {
        let name = format!("i{i}");
        b.input(&name);
        signals.push(name);
    }
    b.gate("k0", GateType::Const0, &[]).unwrap();
    b.gate("k1", GateType::Const1, &[]).unwrap();
    // Flip-flop outputs are frame inputs; they are declared below.
    signals.extend((0..flip_flops).map(|f| format!("q{f}")));
    for g in 0..gates {
        let function = FUNCTIONS[next() % FUNCTIONS.len()];
        let arity = match function {
            GateType::Not | GateType::Buf => 1,
            _ => 2 + next() % 2,
        };
        let fanins: Vec<String> = (0..arity)
            .map(|_| {
                if next() % 4 == 0 {
                    CONSTANTS[next() % 2].to_string()
                } else {
                    signals[next() % signals.len()].clone()
                }
            })
            .collect();
        let refs: Vec<&str> = fanins.iter().map(String::as_str).collect();
        let name = format!("g{g}");
        b.gate(&name, function, &refs).unwrap();
        signals.push(name);
    }
    let gate_names = &signals[3 + flip_flops..];
    for f in 0..flip_flops {
        let data = if f == 0 || next() % 3 == 0 {
            CONSTANTS[next() % 2].to_string()
        } else {
            gate_names[next() % gate_names.len()].clone()
        };
        b.dff(&format!("q{f}"), &data).unwrap();
    }
    b.output(&gate_names[gate_names.len() - 1]).unwrap();
    b.output(&gate_names[next() % gate_names.len()]).unwrap();
    b.build().unwrap()
}
