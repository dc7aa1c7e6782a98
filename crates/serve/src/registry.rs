//! The profile registry: named application profiles, prepared once at
//! registration, shared read-only by every worker thread.
//!
//! Each entry owns its profile through [`PreparedProfile::owned`] and is
//! handed out as an `Arc`, so replacing a name frees the old entry once
//! the last request still holding it drops its `Arc`. The capacity
//! bounds live names; re-registering identical content keeps the
//! existing entry.

use pmt_api::{fnv1a, ApiError, ProfileInfo, RegisterProfileResponse, WIRE_SCHEMA_VERSION};
use pmt_core::PreparedProfile;
use pmt_profiler::ApplicationProfile;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// One registered profile: its prepared form (which owns the application
/// profile) and the content hash registration idempotence keys on.
pub struct RegisteredProfile {
    /// Registry key (the profile's `name`).
    pub name: String,
    /// FNV-1a over the profile's canonical JSON.
    pub content_hash: u64,
    /// The prepared profile every prediction runs against.
    pub prepared: PreparedProfile<'static>,
}

impl std::fmt::Debug for RegisteredProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegisteredProfile")
            .field("name", &self.name)
            .field("content_hash", &self.content_hash)
            .finish_non_exhaustive()
    }
}

impl RegisteredProfile {
    /// The registry-listing entry for this profile.
    pub fn info(&self) -> ProfileInfo {
        let p = self.prepared.profile();
        ProfileInfo {
            name: self.name.clone(),
            total_instructions: p.total_instructions,
            micro_traces: p.micro_traces.len(),
        }
    }
}

/// Registry state behind one lock: lookups are read-locked (many
/// concurrent readers), registration write-locked.
struct Inner {
    by_name: HashMap<String, Arc<RegisteredProfile>>,
    /// Registration order, for a stable listing.
    order: Vec<String>,
}

/// Named prepared profiles, capacity-bounded.
pub struct Registry {
    inner: RwLock<Inner>,
    max_profiles: usize,
}

impl Registry {
    /// An empty registry admitting at most `max_profiles` live names.
    pub fn new(max_profiles: usize) -> Registry {
        Registry {
            inner: RwLock::new(Inner {
                by_name: HashMap::new(),
                order: Vec::new(),
            }),
            max_profiles,
        }
    }

    /// Register `profile` under its own `name`. Identical content under
    /// the same name is idempotent (the entry is kept); different
    /// content replaces the entry. Fails with `registry_full` when a new
    /// name would exceed the capacity and with `bad_profile` on an
    /// unusable profile.
    pub fn register(
        &self,
        profile: ApplicationProfile,
    ) -> Result<RegisterProfileResponse, ApiError> {
        if profile.name.is_empty() {
            return Err(ApiError::bad_request(
                "bad_profile",
                "profile has an empty name",
            ));
        }
        if profile.total_instructions == 0 || profile.micro_traces.is_empty() {
            return Err(ApiError::bad_request(
                "bad_profile",
                format!(
                    "profile `{}` is empty (no instructions or micro-traces)",
                    profile.name
                ),
            ));
        }
        let mut json = String::new();
        serde::Serialize::to_json(&profile, &mut json);
        let content_hash = fnv1a(&[&json]);
        let name = profile.name.clone();

        let mut inner = self.inner.write().expect("registry lock");
        let existing = inner.by_name.get(&name);
        let replaced = existing.is_some();
        if let Some(e) = existing {
            if e.content_hash == content_hash {
                // Identical content: nothing to do.
                return Ok(self.response(&inner.by_name[&name], true));
            }
        }
        if !replaced && inner.by_name.len() >= self.max_profiles {
            return Err(ApiError::too_large(
                "registry_full",
                format!(
                    "registry holds its maximum of {} profiles",
                    self.max_profiles
                ),
            ));
        }
        let entry = Arc::new(RegisteredProfile {
            name: name.clone(),
            content_hash,
            prepared: PreparedProfile::owned(profile),
        });
        if !replaced {
            inner.order.push(name.clone());
        }
        let response = self.response(&entry, replaced);
        inner.by_name.insert(name, entry);
        Ok(response)
    }

    fn response(&self, entry: &RegisteredProfile, replaced: bool) -> RegisterProfileResponse {
        let p = entry.prepared.profile();
        RegisterProfileResponse {
            schema_version: WIRE_SCHEMA_VERSION,
            name: entry.name.clone(),
            total_instructions: p.total_instructions,
            micro_traces: p.micro_traces.len(),
            replaced,
        }
    }

    /// Look up a profile by name (cheap `Arc` clone out of the read
    /// lock).
    pub fn get(&self, name: &str) -> Result<Arc<RegisteredProfile>, ApiError> {
        let inner = self.inner.read().expect("registry lock");
        inner.by_name.get(name).cloned().ok_or_else(|| {
            let mut known: Vec<&str> = inner.order.iter().map(String::as_str).collect();
            known.sort_unstable();
            ApiError::not_found(
                "unknown_profile",
                format!(
                    "no profile `{name}` is registered (registered: {})",
                    if known.is_empty() {
                        "none".to_string()
                    } else {
                        known.join(", ")
                    }
                ),
            )
        })
    }

    /// Registry listing, in registration order.
    pub fn list(&self) -> Vec<ProfileInfo> {
        let inner = self.inner.read().expect("registry lock");
        inner
            .order
            .iter()
            .map(|name| inner.by_name[name].info())
            .collect()
    }

    /// Number of registered profiles.
    pub fn len(&self) -> usize {
        self.inner.read().expect("registry lock").by_name.len()
    }

    /// Whether no profile is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmt_profiler::{Profiler, ProfilerConfig};
    use pmt_workloads::WorkloadSpec;

    fn profile(name: &str, instructions: u64) -> ApplicationProfile {
        let spec = WorkloadSpec::by_name("astar").unwrap();
        Profiler::new(ProfilerConfig::fast_test())
            .profile_named(name, &mut spec.trace(instructions))
    }

    #[test]
    fn register_lookup_and_list_round_trip() {
        let reg = Registry::new(4);
        assert!(reg.is_empty());
        let r = reg.register(profile("astar", 20_000)).unwrap();
        assert_eq!(r.name, "astar");
        assert!(!r.replaced);
        assert!(r.total_instructions >= 20_000 - 1);
        let got = reg.get("astar").unwrap();
        assert_eq!(got.name, "astar");
        assert_eq!(reg.list().len(), 1);
        assert_eq!(reg.list()[0].name, "astar");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn identical_reregistration_is_idempotent_and_free() {
        let reg = Registry::new(1); // room for exactly one name
        let p = profile("astar", 20_000);
        reg.register(p.clone()).unwrap();
        let kept = reg.get("astar").unwrap();
        // Same content: succeeds and keeps the entry.
        let again = reg.register(p).unwrap();
        assert!(again.replaced);
        assert_eq!(reg.len(), 1);
        assert!(Arc::ptr_eq(&kept, &reg.get("astar").unwrap()));
        // A second name does not fit: refused.
        let err = reg.register(profile("other", 30_000)).unwrap_err();
        assert_eq!(err.status, 413);
        assert_eq!(err.body.code, "registry_full");
        // Changed content under the live name still fits.
        assert!(reg.register(profile("astar", 30_000)).unwrap().replaced);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn different_content_same_name_replaces() {
        let reg = Registry::new(4);
        reg.register(profile("astar", 20_000)).unwrap();
        let r = reg.register(profile("astar", 40_000)).unwrap();
        assert!(r.replaced);
        assert_eq!(reg.len(), 1);
        let got = reg.get("astar").unwrap();
        assert!(got.prepared.profile().total_instructions >= 40_000 - 1);
    }

    #[test]
    fn a_replaced_entry_lives_until_its_last_arc_drops() {
        let reg = Registry::new(1);
        let first = profile("astar", 20_000);
        reg.register(first.clone()).unwrap();
        let held = reg.get("astar").unwrap();
        let replaced = Arc::downgrade(&held);
        let mut next = first;
        next.total_instructions += 1;
        assert!(reg.register(next).unwrap().replaced);
        assert!(replaced.upgrade().is_some(), "a request still holds it");
        drop(held);
        assert!(replaced.upgrade().is_none());
    }

    #[test]
    fn unknown_profile_error_names_what_is_registered() {
        let reg = Registry::new(4);
        reg.register(profile("astar", 20_000)).unwrap();
        let err = reg.get("mcf").unwrap_err();
        assert_eq!(err.status, 404);
        assert_eq!(err.body.code, "unknown_profile");
        assert!(err.body.message.contains("mcf"));
        assert!(err.body.message.contains("astar"));
    }

    #[test]
    fn empty_profiles_are_rejected() {
        let reg = Registry::new(4);
        let mut p = profile("astar", 20_000);
        p.name = String::new();
        assert_eq!(reg.register(p).unwrap_err().body.code, "bad_profile");
    }
}
