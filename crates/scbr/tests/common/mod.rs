//! Generators shared by the property tests.

use proptest::prelude::*;
use securecloud_scbr::types::Value;

/// Values from every corner predicates compare over: small integers (so
/// predicates and publications collide), integers `f64` cannot tell apart,
/// floats including NaN, the infinities and the signed zeros, and strings.
pub fn arb_value() -> impl Strategy<Value = Value> {
    const TWO_53: i64 = 1 << 53;
    prop_oneof![
        (-20i64..20).prop_map(Value::Int),
        (-20i64..20).prop_map(Value::Int),
        (-3i64..4).prop_map(|d| Value::Int(TWO_53 + d)),
        (-3i64..4).prop_map(|d| Value::Int(-TWO_53 + d)),
        (0i64..3).prop_map(|d| Value::Int(i64::MAX - d)),
        (0i64..3).prop_map(|d| Value::Int(i64::MIN + d)),
        (-40i64..40).prop_map(|v| Value::Float(v as f64 / 2.0)),
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0),
            Just(0.0),
            Just((1u64 << 53) as f64),
        ]
        .prop_map(Value::Float),
        "[a-c]{0,2}".prop_map(Value::Str),
    ]
}
