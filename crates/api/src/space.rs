//! The wire form of a design space: a named canned space or a
//! [`ProductSpace`] declared axis by axis, so arbitrary spaces arrive
//! over the wire as data.

use crate::ApiError;
use pmt_dse::{LazyDesignSpace, ProductSpace};
use pmt_uarch::DesignSpace;
use serde::{Deserialize, Serialize};

/// The named canned spaces (CLI `--space` and wire `base`/`name` values).
pub const SPACE_NAMES: &[&str] = &["thesis", "full", "validation", "small", "big", "demo"];

/// The axis names a wire [`AxisSpec`] may use, mirroring the canned
/// [`ProductSpace`] builders.
pub const AXIS_NAMES: &[&str] = &["w", "rob", "l1", "l2", "l3", "mshr", "f"];

/// One swept axis over the wire: a canned-axis name plus the values it
/// takes. Integer knobs (`w`, `rob`, `l1`, `l2`, `l3`, `mshr`) must carry
/// whole non-negative values; `f` (core clock in GHz) is continuous.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AxisSpec {
    /// One of [`AXIS_NAMES`].
    pub name: String,
    /// The values this axis sweeps (non-empty).
    pub values: Vec<f64>,
}

impl AxisSpec {
    /// An axis over the given values.
    pub fn new(name: &str, values: &[f64]) -> AxisSpec {
        AxisSpec {
            name: name.to_string(),
            values: values.to_vec(),
        }
    }

    /// Validate this axis and apply it to a [`ProductSpace`] under
    /// construction.
    fn apply(&self, space: ProductSpace) -> Result<ProductSpace, ApiError> {
        if self.values.is_empty() {
            return Err(ApiError::bad_request(
                "empty_axis",
                format!("axis `{}` has no values", self.name),
            ));
        }
        let ints = || -> Result<Vec<u32>, ApiError> {
            self.values
                .iter()
                .map(|&v| {
                    if v.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&v) {
                        Ok(v as u32)
                    } else {
                        Err(ApiError::bad_request(
                            "bad_axis_value",
                            format!(
                                "axis `{}` takes whole non-negative values; got {v:?}",
                                self.name
                            ),
                        ))
                    }
                })
                .collect()
        };
        Ok(match self.name.as_str() {
            "w" => space.dispatch_widths(&ints()?),
            "rob" => space.rob_sizes(&ints()?),
            "l1" => space.l1_kb(&ints()?),
            "l2" => space.l2_kb(&ints()?),
            "l3" => space.l3_kb(&ints()?),
            "mshr" => space.mshr_entries(&ints()?),
            "f" => space.frequency_ghz(&self.values),
            other => {
                return Err(ApiError::bad_request(
                    "unknown_axis",
                    format!("unknown axis `{other}` (known: {})", AXIS_NAMES.join(", ")),
                ))
            }
        })
    }
}

/// A design space, over the wire: either a `name` from [`SPACE_NAMES`],
/// or a product space built from `axes` over a `base` machine (one of
/// [`crate::MACHINE_NAMES`], defaulting to `nehalem` when null). Exactly
/// one of `name`/`axes` must be set.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpaceSpec {
    /// A canned space name, or null when `axes` is given.
    pub name: Option<String>,
    /// Base machine name for a product space (null → `nehalem`).
    pub base: Option<String>,
    /// Product-space axes in application order, or null when `name` is
    /// given.
    pub axes: Option<Vec<AxisSpec>>,
}

impl SpaceSpec {
    /// Spec for a canned named space.
    pub fn named(name: &str) -> SpaceSpec {
        SpaceSpec {
            name: Some(name.to_string()),
            base: None,
            axes: None,
        }
    }

    /// Spec for a product space over `base` (None → `nehalem`).
    pub fn product(base: Option<&str>, axes: Vec<AxisSpec>) -> SpaceSpec {
        SpaceSpec {
            name: None,
            base: base.map(str::to_string),
            axes: Some(axes),
        }
    }

    /// A human-readable label for reports (`"big"`, or
    /// `"product(w,rob,f)"`).
    pub fn label(&self) -> String {
        match (&self.name, &self.axes) {
            (Some(name), _) => name.clone(),
            (None, Some(axes)) => {
                let names: Vec<&str> = axes.iter().map(|a| a.name.as_str()).collect();
                format!("product({})", names.join(","))
            }
            (None, None) => "invalid".to_string(),
        }
    }

    /// Materialize the lazy space, rejecting unknown names/axes with a
    /// structured error, and a product space whose point count overflows
    /// `usize` with `413 space_too_large` (so [`LazyDesignSpace::len`]
    /// on the result cannot overflow).
    pub fn resolve(&self) -> Result<Box<dyn LazyDesignSpace + Send + Sync>, ApiError> {
        match (&self.name, &self.axes) {
            (Some(_), Some(_)) => Err(ApiError::bad_request(
                "ambiguous_space",
                "space spec sets both `name` and `axes`; use exactly one",
            )),
            (None, None) => Err(ApiError::bad_request(
                "missing_space",
                "space spec sets neither `name` nor `axes`",
            )),
            (Some(name), None) => match name.as_str() {
                "thesis" | "full" => Ok(Box::new(DesignSpace::thesis_table_6_3())),
                "validation" => Ok(Box::new(DesignSpace::validation_subspace())),
                "small" => Ok(Box::new(DesignSpace::small())),
                "big" | "demo" => Ok(Box::new(ProductSpace::frontier_demo())),
                other => Err(ApiError::bad_request(
                    "unknown_space",
                    format!(
                        "unknown space `{other}` (known: {})",
                        SPACE_NAMES.join(", ")
                    ),
                )),
            },
            (None, Some(axes)) => {
                let base = match self.base.as_deref() {
                    None => pmt_uarch::MachineConfig::nehalem(),
                    Some(name) => crate::machine_by_name(name).ok_or_else(|| {
                        ApiError::bad_request(
                            "unknown_machine",
                            format!(
                                "unknown base machine `{name}` (known: {})",
                                crate::MACHINE_NAMES.join(", ")
                            ),
                        )
                    })?,
                };
                if axes.is_empty() {
                    return Err(ApiError::bad_request(
                        "empty_space",
                        "product space declares no axes",
                    ));
                }
                let points = axes
                    .iter()
                    .try_fold(1usize, |n, axis| n.checked_mul(axis.values.len()));
                if points.is_none() {
                    let sizes: Vec<String> = axes
                        .iter()
                        .map(|a| format!("{}×{}", a.name, a.values.len()))
                        .collect();
                    return Err(ApiError::too_large(
                        "space_too_large",
                        format!(
                            "space point count overflows usize: axes {}",
                            sizes.join(" · ")
                        ),
                    ));
                }
                let mut space = ProductSpace::new(base);
                for axis in axes {
                    space = axis.apply(space)?;
                }
                Ok(Box::new(space))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `unwrap_err` without requiring the space to be `Debug`.
    fn resolve_err(spec: &SpaceSpec) -> ApiError {
        match spec.resolve() {
            Ok(space) => panic!("expected an error, resolved a {}-point space", space.len()),
            Err(e) => e,
        }
    }

    #[test]
    fn named_spaces_resolve_to_their_documented_sizes() {
        for (name, len) in [
            ("thesis", 243),
            ("full", 243),
            ("validation", 27),
            ("small", 32),
        ] {
            let space = SpaceSpec::named(name).resolve().unwrap();
            assert_eq!(space.len(), len, "space `{name}`");
        }
        let demo = SpaceSpec::named("demo").resolve().unwrap();
        assert_eq!(demo.len(), ProductSpace::frontier_demo().len());
        assert!(demo.len() >= 100_000);
    }

    #[test]
    fn product_spec_matches_the_direct_builder() {
        let spec = SpaceSpec::product(
            None,
            vec![
                AxisSpec::new("w", &[2.0, 4.0]),
                AxisSpec::new("rob", &[64.0, 128.0, 256.0]),
                AxisSpec::new("f", &[2.0, 2.66]),
            ],
        );
        let wire = spec.resolve().unwrap();
        let direct = ProductSpace::new(pmt_uarch::MachineConfig::nehalem())
            .dispatch_widths(&[2, 4])
            .rob_sizes(&[64, 128, 256])
            .frequency_ghz(&[2.0, 2.66]);
        assert_eq!(wire.len(), direct.len());
        for i in 0..wire.len() {
            assert_eq!(wire.point_at(i), direct.point_at(i));
        }
        assert_eq!(spec.label(), "product(w,rob,f)");
    }

    #[test]
    fn unknown_axis_is_a_structured_error_naming_the_offender() {
        let spec = SpaceSpec::product(None, vec![AxisSpec::new("btb", &[1.0])]);
        let err = resolve_err(&spec);
        assert_eq!(err.status, 400);
        assert_eq!(err.body.code, "unknown_axis");
        assert!(err.body.message.contains("btb"));
        assert!(err.body.message.contains("mshr")); // lists the known axes
    }

    #[test]
    fn bad_axis_values_and_empty_axes_are_rejected() {
        let frac = SpaceSpec::product(None, vec![AxisSpec::new("rob", &[64.5])]);
        assert_eq!(resolve_err(&frac).body.code, "bad_axis_value");

        let neg = SpaceSpec::product(None, vec![AxisSpec::new("l2", &[-256.0])]);
        assert_eq!(resolve_err(&neg).body.code, "bad_axis_value");

        let empty = SpaceSpec::product(None, vec![AxisSpec::new("w", &[])]);
        assert_eq!(resolve_err(&empty).body.code, "empty_axis");

        let no_axes = SpaceSpec::product(None, vec![]);
        assert_eq!(resolve_err(&no_axes).body.code, "empty_space");

        // Fractional clocks are fine: `f` is continuous.
        let f = SpaceSpec::product(Some("low-power"), vec![AxisSpec::new("f", &[1.33, 2.66])]);
        assert_eq!(f.resolve().unwrap().len(), 2);
    }

    #[test]
    fn an_overflowing_point_count_is_a_413_not_a_panic() {
        let values: Vec<f64> = (0..256).map(f64::from).collect();
        let axes = (0..8).map(|_| AxisSpec::new("f", &values)).collect();
        let err = resolve_err(&SpaceSpec::product(None, axes));
        assert_eq!(err.status, 413);
        assert_eq!(err.body.code, "space_too_large");
        assert!(err.body.message.contains("f×256"), "{}", err.body.message);

        // One axis fewer fits: 256⁷ points resolve (lazily) without panicking.
        let axes = (0..7).map(|_| AxisSpec::new("f", &values)).collect();
        let space = SpaceSpec::product(None, axes).resolve().unwrap();
        assert_eq!(space.len(), 1usize << 56);
    }

    #[test]
    fn unknown_space_and_base_machine_are_structured_errors() {
        let err = resolve_err(&SpaceSpec::named("galaxy"));
        assert_eq!(err.body.code, "unknown_space");
        assert!(err.body.message.contains("galaxy"));

        let err = resolve_err(&SpaceSpec::product(
            Some("sparc"),
            vec![AxisSpec::new("w", &[2.0])],
        ));
        assert_eq!(err.body.code, "unknown_machine");

        let both = SpaceSpec {
            name: Some("small".into()),
            base: None,
            axes: Some(vec![AxisSpec::new("w", &[2.0])]),
        };
        assert_eq!(resolve_err(&both).body.code, "ambiguous_space");

        let neither = SpaceSpec {
            name: None,
            base: None,
            axes: None,
        };
        assert_eq!(resolve_err(&neither).body.code, "missing_space");
        assert_eq!(neither.label(), "invalid");
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = SpaceSpec::product(
            Some("nehalem"),
            vec![AxisSpec::new("w", &[2.0, 4.0]), AxisSpec::new("f", &[2.66])],
        );
        let json = serde_json::to_string(&spec).unwrap();
        let back: SpaceSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);

        let named = SpaceSpec::named("big");
        let back: SpaceSpec =
            serde_json::from_str(&serde_json::to_string(&named).unwrap()).unwrap();
        assert_eq!(back, named);
    }
}
