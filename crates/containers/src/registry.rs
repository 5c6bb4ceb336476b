//! An untrusted, content-addressed image registry.
//!
//! Per §V-A: *"the secure image is published using the standard Docker
//! registry. As all security-relevant parts of the image are protected by
//! the FS protection file, we do not need to trust the Docker registry."*
//! Tests in the engine module demonstrate that tampering with a published
//! secure image is detected at container start.

use crate::image::{Image, ImageId};
use crate::ContainerError;
use parking_lot::RwLock;
use std::collections::HashMap;

/// An in-memory registry. Content is addressed by [`ImageId`]; `name:tag`
/// references resolve through a mutable tag map (which an attacker who
/// controls the registry may repoint — hence ids, not tags, are the unit of
/// trust).
#[derive(Debug, Default)]
pub struct Registry {
    blobs: RwLock<HashMap<ImageId, Image>>,
    tags: RwLock<HashMap<String, ImageId>>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes an image and points its `name:tag` at it.
    pub fn push(&self, image: Image) -> ImageId {
        let id = image.id();
        self.tags.write().insert(image.reference(), id);
        self.blobs.write().insert(id, image);
        id
    }

    /// Fetches an image by content id.
    ///
    /// # Errors
    ///
    /// [`ContainerError::ImageNotFound`] if the id is unknown.
    pub fn pull(&self, id: ImageId) -> Result<Image, ContainerError> {
        self.blobs
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| ContainerError::ImageNotFound(id.to_hex()))
    }

    /// Resolves a `name:tag` reference to an id.
    ///
    /// # Errors
    ///
    /// [`ContainerError::ImageNotFound`] if the reference is unknown.
    pub fn resolve(&self, reference: &str) -> Result<ImageId, ContainerError> {
        self.tags
            .read()
            .get(reference)
            .copied()
            .ok_or_else(|| ContainerError::ImageNotFound(reference.to_string()))
    }

    /// Number of stored images.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blobs.read().len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blobs.read().is_empty()
    }

    /// Adversarial hook: repoints a tag at a different image (registry
    /// compromise / malicious mirror).
    // Needed by `tests::tag_repointing_changes_resolution_not_content`.
    #[doc(hidden)]
    pub fn repoint_tag(&self, reference: &str, id: ImageId) {
        self.tags.write().insert(reference.to_string(), id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Layer;

    #[test]
    fn push_pull_roundtrip() {
        let registry = Registry::new();
        let image =
            Image::new("svc", "v1", b"bin").with_layer(Layer::new().with_file("/etc/app", b"conf"));
        let id = registry.push(image.clone());
        assert_eq!(registry.pull(id).unwrap(), image);
        assert_eq!(
            registry.pull(registry.resolve("svc:v1").unwrap()).unwrap(),
            image
        );
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn unknown_lookups_fail() {
        let registry = Registry::new();
        assert!(matches!(
            registry.resolve("nope:latest"),
            Err(ContainerError::ImageNotFound(_))
        ));
        assert!(registry.pull(ImageId([0u8; 32])).is_err());
    }

    #[test]
    fn tag_repointing_changes_resolution_not_content() {
        let registry = Registry::new();
        let good = Image::new("svc", "v1", b"good");
        let evil = Image::new("svc-evil", "v1", b"evil");
        let good_id = registry.push(good.clone());
        let evil_id = registry.push(evil.clone());
        registry.repoint_tag("svc:v1", evil_id);
        // Tag now lies, but content addressing is immutable.
        assert_eq!(
            registry.pull(registry.resolve("svc:v1").unwrap()).unwrap(),
            evil
        );
        assert_eq!(registry.pull(good_id).unwrap(), good);
    }

    #[test]
    fn same_content_same_slot() {
        let registry = Registry::new();
        let id1 = registry.push(Image::new("a", "1", b"x"));
        let id2 = registry.push(Image::new("a", "1", b"x"));
        assert_eq!(id1, id2);
        assert_eq!(registry.len(), 1);
    }
}
