//! Minimal wire encoding for crypto types used during the handshake.
//!
//! Deliberately local to this crate: the *payloads* that flow over
//! established channels use the shared codec in `gridbank-rur`; only the
//! handshake itself (certificates) needs these helpers, and keeping them
//! here avoids a dependency cycle. A signature inside a certificate is
//! the length-prefixed `MerkleSignature::to_bytes` encoding — the one
//! signature codec, owned by the crate that owns the type.

use gridbank_crypto::cert::{Certificate, CertificateBody, ProxyCertificate, SubjectName};
use gridbank_crypto::keys::VerifyingKey;
use gridbank_crypto::merkle::MerkleSignature;
use gridbank_crypto::sha256::{Digest, DIGEST_LEN};

use crate::error::NetError;

pub(crate) struct Writer {
    pub buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer { buf: Vec::with_capacity(256) }
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    pub fn digest(&mut self, d: &Digest) {
        self.buf.extend_from_slice(d.as_bytes());
    }

    pub fn sig(&mut self, s: &MerkleSignature) {
        self.bytes(&s.to_bytes());
    }

    pub fn cert(&mut self, c: &Certificate) {
        self.str(&c.body.subject.0);
        self.str(&c.body.issuer.0);
        self.digest(&c.body.subject_key.0);
        self.u64(c.body.not_before);
        self.u64(c.body.not_after);
        self.u64(c.body.serial);
        self.sig(&c.signature);
    }

    pub fn proxy(&mut self, p: &ProxyCertificate) {
        self.str(&p.body.subject.0);
        self.str(&p.body.issuer.0);
        self.digest(&p.body.subject_key.0);
        self.u64(p.body.not_before);
        self.u64(p.body.not_after);
        self.u64(p.body.serial);
        self.sig(&p.signature);
        self.cert(&p.user_cert);
        self.u8(p.delegation_depth);
    }
}

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        if self.buf.len() - self.pos < n {
            return Err(NetError::Malformed(format!(
                "need {n} bytes, {} remain",
                self.buf.len() - self.pos
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    pub fn u64(&mut self) -> Result<u64, NetError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    pub fn bytes(&mut self) -> Result<&'a [u8], NetError> {
        let len = self.u64()? as usize;
        if len > 1 << 24 {
            return Err(NetError::Malformed(format!("implausible length {len}")));
        }
        self.take(len)
    }

    pub fn str(&mut self) -> Result<String, NetError> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|e| NetError::Malformed(format!("bad utf-8: {e}")))
    }

    pub fn digest(&mut self) -> Result<Digest, NetError> {
        let b = self.take(DIGEST_LEN)?;
        let mut a = [0u8; DIGEST_LEN];
        a.copy_from_slice(b);
        Ok(Digest(a))
    }

    pub fn sig(&mut self) -> Result<MerkleSignature, NetError> {
        MerkleSignature::from_bytes(self.bytes()?).map_err(|e| NetError::Malformed(e.to_string()))
    }

    pub fn cert(&mut self) -> Result<Certificate, NetError> {
        let body = CertificateBody {
            subject: SubjectName(self.str()?),
            issuer: SubjectName(self.str()?),
            subject_key: VerifyingKey(self.digest()?),
            not_before: self.u64()?,
            not_after: self.u64()?,
            serial: self.u64()?,
        };
        let signature = self.sig()?;
        Ok(Certificate { body, signature })
    }

    pub fn proxy(&mut self) -> Result<ProxyCertificate, NetError> {
        let body = CertificateBody {
            subject: SubjectName(self.str()?),
            issuer: SubjectName(self.str()?),
            subject_key: VerifyingKey(self.digest()?),
            not_before: self.u64()?,
            not_after: self.u64()?,
            serial: self.u64()?,
        };
        let signature = self.sig()?;
        let user_cert = self.cert()?;
        let delegation_depth = self.u8()?;
        Ok(ProxyCertificate { body, signature, user_cert, delegation_depth })
    }

    pub fn finish(self) -> Result<(), NetError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(NetError::Malformed(format!("{} trailing bytes", self.buf.len() - self.pos)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridbank_crypto::cert::{create_proxy, CertificateAuthority};
    use gridbank_crypto::keys::{KeyMaterial, SigningIdentity};

    #[test]
    fn cert_and_proxy_round_trip() {
        let ca_id = SigningIdentity::generate_small(KeyMaterial { seed: 1 }, "ca");
        let ca = CertificateAuthority::new(SubjectName::new("GB", "CA", "Root"), ca_id);
        let user = SigningIdentity::generate_small(KeyMaterial { seed: 2 }, "alice");
        let cert = ca
            .issue(SubjectName::new("UWA", "CSSE", "alice"), user.verifying_key(), 0, 100)
            .unwrap();
        let proxy_key = SigningIdentity::generate_small(KeyMaterial { seed: 3 }, "p");
        let proxy = create_proxy(&user, &cert, proxy_key.verifying_key(), 0, 50, 1).unwrap();

        let mut w = Writer::new();
        w.proxy(&proxy);
        let mut r = Reader::new(&w.buf);
        let back = r.proxy().unwrap();
        r.finish().unwrap();

        assert_eq!(back.body, proxy.body);
        assert_eq!(back.user_cert.body, proxy.user_cert.body);
        assert_eq!(back.delegation_depth, 1);
        // The decoded chain still verifies.
        back.verify_chain(&ca.verifying_key(), 25).unwrap();
    }

    #[test]
    fn truncation_detected() {
        let ca_id = SigningIdentity::generate_small(KeyMaterial { seed: 1 }, "ca");
        let ca = CertificateAuthority::new(SubjectName::new("GB", "CA", "Root"), ca_id);
        let user = SigningIdentity::generate_small(KeyMaterial { seed: 2 }, "u");
        let cert = ca.issue(SubjectName::new("O", "U", "u"), user.verifying_key(), 0, 10).unwrap();
        let mut w = Writer::new();
        w.cert(&cert);
        for cut in [0, 1, w.buf.len() / 2, w.buf.len() - 1] {
            let mut r = Reader::new(&w.buf[..cut]);
            assert!(r.cert().is_err(), "cut {cut}");
        }
    }

    #[test]
    fn certificate_in_the_previous_signature_layout_is_refused() {
        // Body fields as today, then the signature as it was framed
        // before W-OTS: a bare leaf index, a length-prefixed 16 KiB
        // one-time signature, the leaf key, a second index and the path.
        let mut w = Writer::new();
        w.str("/O=O/OU=U/CN=u");
        w.str("/O=GB/OU=CA/CN=Root");
        w.digest(&Digest::ZERO);
        for field in [0u64, 10, 1] {
            w.u64(field);
        }
        w.u64(5);
        w.bytes(&[0xAB; 512 * 32]);
        w.digest(&Digest::ZERO);
        w.u64(5);
        w.u64(4);
        for _ in 0..4 {
            w.digest(&Digest::ZERO);
        }
        assert!(matches!(Reader::new(&w.buf).cert(), Err(NetError::Malformed(_))));
    }

    proptest::proptest! {
        #[test]
        fn random_bytes_never_parse_as_a_signature(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..3_000),
            framed in proptest::prelude::any::<bool>(),
        ) {
            // Raw, and behind a truthful length prefix so the codec
            // itself is reached: `Err` either way, never a panic.
            let mut w = Writer::new();
            if framed {
                w.bytes(&bytes);
            } else {
                w.buf = bytes;
            }
            proptest::prop_assert!(matches!(Reader::new(&w.buf).sig(), Err(NetError::Malformed(_))));
        }
    }

    #[test]
    fn hostile_lengths_rejected() {
        // A length prefix claiming 2^32 bytes must not allocate.
        let mut w = Writer::new();
        w.u64(u32::MAX as u64 + 5);
        let mut r = Reader::new(&w.buf);
        assert!(matches!(r.bytes(), Err(NetError::Malformed(_))));
    }
}
